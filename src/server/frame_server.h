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

/// Where a frame server listens; at least one listener must be enabled.
struct Listeners {
  /// Unix-domain socket path; empty disables the UDS listener.
  std::string uds_path;
  /// TCP port on 127.0.0.1, in [0, 65535]: 0 binds an ephemeral port (read
  /// it back with FrameServer::tcp_port()); negative disables the TCP
  /// listener.
  int tcp_port = -1;
};

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
/// (docs/engineering.md, "The frame server"): an acceptor thread hands
/// accepted connections round-robin to N shared-nothing event-loop shards,
/// and a connection moves to its tenant's home shard (TenantNameHash modulo
/// the shard count) once its first frame is buffered. Connections are
/// nonblocking with buffered framing and request pipelining. Unflushed
/// responses are capped per connection at one max-size frame plus 64 KiB:
/// a client that outruns its own reads past that gets a ResourceExhausted
/// ERROR and is closed. An idle server performs zero periodic wakeups.
class FrameServer {
 public:
  /// `requested` shards, or one per core (at most 256) when it is 0;
  /// InvalidArgument outside [0, 256].
  static Result<int> ResolveNumShards(int requested);

  /// Binds `listeners` and starts the acceptor and `num_shards` shard
  /// threads (see ResolveNumShards), which call `handler` until Stop().
  static Result<std::unique_ptr<FrameServer>> Create(
      const Listeners& listeners, int num_shards, FrameHandler* handler);

  ~FrameServer();
  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Stops accepting, winds the shards down in parallel (a handler call in
  /// progress finishes first, then every connection is closed), closes the
  /// listeners and removes the socket file. Idempotent.
  void Stop();

  /// Bound TCP port, or 0 without a TCP listener.
  std::uint16_t tcp_port() const { return bound_tcp_port_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  FrameServer();

  Status Start(const Listeners& listeners, int num_shards,
               FrameHandler* handler);
  void AcceptLoop();

  std::string uds_path_;
  int uds_listen_fd_ = -1;
  int tcp_listen_fd_ = -1;
  std::uint16_t bound_tcp_port_ = 0;

  /// Index i is home shard i. Stable once Start() returns (shards hold a
  /// span over this vector for migration).
  std::vector<std::unique_ptr<Shard>> shards_;

  /// The acceptor epolls the listen fds and blocks until a connection or
  /// Stop()'s wakeup arrives.
  std::optional<EventLoop> accept_loop_;
  std::thread acceptor_;
};

}  // namespace server
}  // namespace mrl

#endif  // MRLQUANT_SERVER_FRAME_SERVER_H_
