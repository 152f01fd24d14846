#ifndef MRLQUANT_SERVER_CONN_H_
#define MRLQUANT_SERVER_CONN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/thread_annotations.h"

namespace mrl {
namespace server {

/// A nonblocking connection with buffered framing, owned by exactly one
/// shard at a time (handed between shards whole, through an MPSC inbox, so
/// no member needs a lock). The read side accumulates raw bytes until
/// complete frames can be carved off; the write side batches every pending
/// response into one flat buffer flushed with a single vectored write per
/// readiness event — that is what makes request pipelining pay: many
/// frames in per readv, many responses out per writev.
///
/// Both buffers are flat vectors with a consumed-prefix offset; they grow
/// to the connection's high-water mark once and are then reused, so the
/// steady-state ingest path performs no heap allocation
/// (bench/server_throughput.cc pins this with a counting operator new).
class Conn {
 public:
  /// Takes ownership of `fd` (closed on destruction).
  explicit Conn(int fd);
  ~Conn();

  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }

  enum class IoResult {
    kOk,     ///< made progress; socket drained to EAGAIN
    kEof,    ///< peer closed its write side (buffered input may remain)
    kError,  ///< transport error; drop the connection
  };

  /// Drains the socket into the input buffer (readv: buffer tail first,
  /// spill chunk second, so a burst larger than the warmed capacity still
  /// lands in one syscall). Call on EPOLLIN readiness.
  MRLQUANT_HOT IoResult FillFromSocket();

  /// Unconsumed input bytes (front at `data()`).
  const std::uint8_t* data() const { return in_.data() + in_head_; }
  std::size_t available() const { return in_.size() - in_head_; }

  /// Consumes `n` bytes of input (one decoded frame). Compacts the buffer
  /// when it empties, so the consumed prefix never grows without bound.
  MRLQUANT_HOT void Consume(std::size_t n);

  /// Response staging area: handlers append whole encoded frames at the
  /// tail. Flush() drains from the front.
  std::vector<std::uint8_t>* out() { return &out_; }
  std::size_t pending_out() const { return out_.size() - out_head_; }

  /// Rolls the response buffer back to `bytes` pending — discards a
  /// response that would overflow the shard's write-buffer cap.
  void RollbackOut(std::size_t bytes) { out_.resize(out_head_ + bytes); }

  /// Writes as much pending response data as the socket accepts (one
  /// writev). kOk with pending_out() == 0 means fully drained; kOk with
  /// bytes remaining means the socket filled up — arm EPOLLOUT and retry
  /// on writability. Call sites never see a partially written frame
  /// boundary: the kernel preserves byte order, only our buffer offset
  /// moves.
  MRLQUANT_HOT IoResult Flush();

  /// Close after the response buffer drains (write-cap overflow, protocol
  /// errors that poison framing, EOF with responses still buffered).
  bool closing = false;
  /// Pinned to its tenant's home shard (or confirmed shard-agnostic);
  /// re-routing is considered only before the first frame is processed.
  bool routed = false;
  /// Registered EPOLLOUT interest (response backlog waiting for the
  /// socket); tracked here so the shard only issues epoll_ctl on change.
  bool want_write = false;

 private:
  int fd_;

  std::vector<std::uint8_t> in_;
  std::size_t in_head_ = 0;
  std::vector<std::uint8_t> out_;
  std::size_t out_head_ = 0;
};

}  // namespace server
}  // namespace mrl

#endif  // MRLQUANT_SERVER_CONN_H_
