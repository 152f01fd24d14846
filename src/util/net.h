#ifndef MRLQUANT_UTIL_NET_H_
#define MRLQUANT_UTIL_NET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace mrl {
namespace net {

/// Internal status naming the failed call and strerror(errno).
Status StatusFromErrno(const char* what);

/// Outcome of a blocking socket transfer. kTimeout is an SO_RCVTIMEO /
/// SO_SNDTIMEO deadline expiring; kEof is the peer closing before the
/// transfer completed; kBadLength is a frame length prefix the caller's
/// framing rule rejected.
enum class IoOutcome { kOk, kEof, kTimeout, kError, kBadLength };

/// send(2)/recv(2) loops over EINTR and short transfers. Sends never
/// raise SIGPIPE.
IoOutcome SendAll(int fd, const std::uint8_t* buf, std::size_t n);
IoOutcome RecvAll(int fd, std::uint8_t* buf, std::size_t n);

/// Decodes a 4-byte frame length prefix into *body_len and reports whether
/// it can frame a message (server::ReadFrameBodyLen is the protocol's).
using BodyLenRule = bool (*)(const std::uint8_t* prefix,
                             std::uint32_t* body_len);

/// Reads one length-prefixed frame into *frame, prefix included (capacity
/// reused). A prefix that `rule` rejects yields kBadLength with nothing
/// more read: a byte stream cannot be resynchronized after it.
IoOutcome RecvFrame(int fd, BodyLenRule rule, std::vector<std::uint8_t>* frame);

/// Blocking listening sockets with one backlog (the kernel clamps it to
/// somaxconn). ListenUnix replaces a stale socket file at `path`;
/// ListenLoopbackTcp binds 127.0.0.1 (`port` 0 picks an ephemeral port)
/// and reports the bound port.
Result<int> ListenUnix(const std::string& path);
Result<int> ListenLoopbackTcp(std::uint16_t port, std::uint16_t* bound_port);

}  // namespace net
}  // namespace mrl

#endif  // MRLQUANT_UTIL_NET_H_
