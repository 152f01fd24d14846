#include "server/conn.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace mrl {
namespace server {

namespace {

/// Spill chunk for reads that overflow the warmed input buffer: large
/// enough that a fresh connection reaches its steady-state capacity in a
/// handful of events, small enough to live on the stack.
constexpr std::size_t kReadSpill = 64 * 1024;

}  // namespace

Conn::Conn(int fd) : fd_(fd) {}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

Conn::IoResult Conn::FillFromSocket() {
  // Compact before reading so the whole warmed capacity is available as
  // one contiguous tail (memmove of the unconsumed remainder — typically a
  // partial frame, so small).
  if (in_head_ > 0) {
    const std::size_t remain = in_.size() - in_head_;
    if (remain > 0) std::memmove(in_.data(), in_.data() + in_head_, remain);
    in_.resize(remain);  // NOLINT(mrlquant-no-alloc-in-hot-path): shrink only
    in_head_ = 0;
  }
  std::uint8_t spill[kReadSpill];
  for (;;) {
    const std::size_t size = in_.size();
    const std::size_t tail_room = in_.capacity() - size;
    // Expose the buffer's unused capacity as the first iovec so the common
    // case (burst fits the warmed buffer) costs zero copies, with the
    // stack spill as overflow.
    // NOLINTNEXTLINE(mrlquant-no-alloc-in-hot-path): resize within capacity
    in_.resize(size + tail_room);
    iovec iov[2];
    iov[0].iov_base = in_.data() + size;
    iov[0].iov_len = tail_room;
    iov[1].iov_base = spill;
    iov[1].iov_len = sizeof(spill);
    const int iovcnt = tail_room > 0 ? 2 : 1;
    const ssize_t r =
        ::readv(fd_, tail_room > 0 ? iov : iov + 1, iovcnt);
    if (r < 0) {
      in_.resize(size);  // NOLINT(mrlquant-no-alloc-in-hot-path): shrink only
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::kOk;
      return IoResult::kError;
    }
    if (r == 0) {
      in_.resize(size);  // NOLINT(mrlquant-no-alloc-in-hot-path): shrink only
      return IoResult::kEof;
    }
    const std::size_t got = static_cast<std::size_t>(r);
    if (got <= tail_room) {
      // NOLINTNEXTLINE(mrlquant-no-alloc-in-hot-path): shrink only
      in_.resize(size + got);
    } else {
      // Burst exceeded the warmed buffer: append the spilled bytes, growing
      // the buffer toward its new high-water mark (amortized away in steady
      // state — the next event finds the capacity already there).
      // NOLINTNEXTLINE(mrlquant-no-alloc-in-hot-path): high-water growth
      in_.insert(in_.end(), spill, spill + (got - tail_room));
    }
    if (got < tail_room + sizeof(spill)) return IoResult::kOk;
    // Both iovecs filled: more may be pending, go around again.
  }
}

void Conn::Consume(std::size_t n) {
  in_head_ += n;
  if (in_head_ == in_.size()) {
    in_.clear();
    in_head_ = 0;
  }
}

Conn::IoResult Conn::Flush() {
  while (out_head_ < out_.size()) {
    iovec iov;
    iov.iov_base = out_.data() + out_head_;
    iov.iov_len = out_.size() - out_head_;
    msghdr msg{};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    // sendmsg rather than writev for MSG_NOSIGNAL: a peer that closed its
    // read side must surface as EPIPE, not kill the daemon.
    const ssize_t w = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::kOk;
      return IoResult::kError;
    }
    out_head_ += static_cast<std::size_t>(w);
  }
  out_.clear();
  out_head_ = 0;
  return IoResult::kOk;
}

}  // namespace server
}  // namespace mrl
