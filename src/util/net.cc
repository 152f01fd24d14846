#include "util/net.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace mrl {
namespace net {

namespace {

/// C10k bursts arrive faster than an acceptor drains them.
constexpr int kListenBacklog = 4096;

IoOutcome FailedIo() {
  return errno == EAGAIN || errno == EWOULDBLOCK ? IoOutcome::kTimeout
                                                 : IoOutcome::kError;
}

}  // namespace

Status StatusFromErrno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

IoOutcome SendAll(int fd, const std::uint8_t* buf, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return FailedIo();
    }
    sent += static_cast<std::size_t>(w);
  }
  return IoOutcome::kOk;
}

IoOutcome RecvAll(int fd, std::uint8_t* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r == 0) return IoOutcome::kEof;
    if (r < 0) {
      if (errno == EINTR) continue;
      return FailedIo();
    }
    got += static_cast<std::size_t>(r);
  }
  return IoOutcome::kOk;
}

Result<int> ListenUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("unix socket path too long");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd =
      ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return StatusFromErrno("socket(AF_UNIX)");
  ::unlink(path.c_str());
  const auto* bound = reinterpret_cast<const sockaddr*>(&addr);
  if (::bind(fd, bound, sizeof(addr)) != 0 ||
      ::listen(fd, kListenBacklog) != 0) {
    const Status status = StatusFromErrno("bind/listen(AF_UNIX)");
    ::close(fd);
    return status;
  }
  return fd;
}

}  // namespace net
}  // namespace mrl
