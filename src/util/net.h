#ifndef MRLQUANT_UTIL_NET_H_
#define MRLQUANT_UTIL_NET_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace mrl {
namespace net {

/// Internal status naming the failed call and strerror(errno).
Status StatusFromErrno(const char* what);

/// Outcome of a blocking socket transfer. kTimeout is an SO_RCVTIMEO /
/// SO_SNDTIMEO deadline expiring; kEof is the peer closing before the
/// transfer completed.
enum class IoOutcome { kOk, kEof, kTimeout, kError };

/// send(2)/recv(2) loops over EINTR and short transfers. Sends never
/// raise SIGPIPE.
IoOutcome SendAll(int fd, const std::uint8_t* buf, std::size_t n);
IoOutcome RecvAll(int fd, std::uint8_t* buf, std::size_t n);

/// Nonblocking close-on-exec listening sockets, for an accept4 loop under
/// epoll, with one backlog (the kernel clamps it to somaxconn). ListenUnix replaces a stale socket file at `path`;
/// ListenLoopbackTcp binds 127.0.0.1 (`port` 0 picks an ephemeral port)
/// and reports the bound port.
Result<int> ListenUnix(const std::string& path);
Result<int> ListenLoopbackTcp(std::uint16_t port, std::uint16_t* bound_port);

}  // namespace net
}  // namespace mrl

#endif  // MRLQUANT_UTIL_NET_H_
