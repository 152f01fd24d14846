#ifndef MRLQUANT_SERVER_FRAME_SERVER_H_
#define MRLQUANT_SERVER_FRAME_SERVER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "server/event_loop.h"
#include "util/status.h"

namespace mrl {
namespace server {

class Shard;

/// What a frame server serves: one method, called from every shard thread
/// concurrently, with whole frames in the order each connection sent them.
class FrameHandler {
 public:
  /// `frame` is one whole request frame, length prefix included, whose
  /// prefix passed ReadFrameBodyLen (so it holds at least the 12 header
  /// bytes; nothing past the prefix is validated). Appends exactly one
  /// response frame to *out. *out may already hold earlier pipelined
  /// responses of the same connection: append, never overwrite.
  virtual void HandleFrame(std::span<const std::uint8_t> frame,
                           std::vector<std::uint8_t>* out) = 0;

 protected:
  ~FrameHandler() = default;
};

/// The serving substrate of mrlquantd and mrlquant_router
/// (docs/engineering.md, "The frame server"): one Unix-domain listener,
/// whose acceptor thread hands accepted connections round-robin to N
/// shared-nothing event-loop shards, and a connection moves to its
/// tenant's home shard (TenantNameHash modulo the shard count) once its
/// first frame is buffered. Connections are
/// nonblocking with buffered framing and request pipelining. Unflushed
/// responses are capped per connection at one max-size frame plus 64 KiB:
/// a client that outruns its own reads past that gets a ResourceExhausted
/// ERROR and is closed. When the process runs out of file descriptors, the
/// acceptor sheds each pending connection (a best-effort ResourceExhausted
/// ERROR, then close) instead of spinning on a listener it cannot drain.
/// An idle server performs zero periodic wakeups.
class FrameServer {
 public:
  /// `requested` shards, or one per core (at most 256) when it is 0;
  /// InvalidArgument outside [0, 256].
  static Result<int> ResolveNumShards(int requested);

  /// Binds the Unix-domain socket `uds_path` (required: InvalidArgument
  /// when empty) and starts the acceptor and `num_shards` shard threads
  /// (see ResolveNumShards), which call `handler` until Stop().
  static Result<std::unique_ptr<FrameServer>> Create(
      const std::string& uds_path, int num_shards, FrameHandler* handler);

  ~FrameServer();
  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Stops accepting, winds the shards down in parallel (a handler call in
  /// progress finishes first, then every connection is closed), closes the
  /// listener and removes the socket file. Idempotent.
  void Stop();

  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  FrameServer();

  Status Start(const std::string& uds_path, int num_shards,
               FrameHandler* handler);
  void AcceptLoop();
  /// Accepts and closes one pending connection while the process is out
  /// of descriptors, by briefly giving up spare_fd_. False when there is no
  /// spare to give up.
  bool ShedOneConnection();

  std::string uds_path_;
  int listen_fd_ = -1;
  /// A descriptor held in reserve (/dev/null) so that, at EMFILE/ENFILE,
  /// the acceptor can still take a pending connection off the backlog.
  int spare_fd_ = -1;

  /// Index i is home shard i. Stable once Start() returns (shards hold a
  /// span over this vector for migration).
  std::vector<std::unique_ptr<Shard>> shards_;

  /// The acceptor epolls the listen fd and blocks until a connection or
  /// Stop()'s wakeup arrives.
  std::optional<EventLoop> accept_loop_;
  std::thread acceptor_;
};

}  // namespace server
}  // namespace mrl

#endif  // MRLQUANT_SERVER_FRAME_SERVER_H_
