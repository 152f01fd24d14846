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

/// A nonblocking close-on-exec Unix-domain listening socket at `path`, for
/// an accept4 loop under epoll; replaces a stale socket file there. The
/// backlog is large (the kernel clamps it to somaxconn).
Result<int> ListenUnix(const std::string& path);

}  // namespace net
}  // namespace mrl

#endif  // MRLQUANT_UTIL_NET_H_
