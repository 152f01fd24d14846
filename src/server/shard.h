#ifndef MRLQUANT_SERVER_SHARD_H_
#define MRLQUANT_SERVER_SHARD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/conn.h"
#include "server/event_loop.h"
#include "server/frame_server.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace mrl {
namespace server {

/// One shared-nothing event-loop shard of a FrameServer: it owns its epoll
/// set and the connections registered there, and feeds their frames to the
/// server's FrameHandler.
///
/// Connections enter through Adopt() — an eventfd-woken MPSC inbox fed by
/// the acceptor (round-robin) and by peer shards (tenant-affinity
/// migration on a connection's first frame). Everything else runs on the
/// shard's own thread; no other member is shared.
class Shard {
 public:
  Shard(std::size_t index, FrameHandler* handler);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Peer array for tenant-affinity migration (index i = home shard i).
  /// Call once, after all shards exist, before Start().
  void SetPeers(std::span<const std::unique_ptr<Shard>> peers) {
    peers_ = peers;
  }

  Status Start();

  /// Two-phase shutdown so the server can stop all shards in parallel:
  /// RequestStop() wakes the loop, Join() reaps the thread and closes
  /// every remaining connection.
  void RequestStop();
  void Join();

  /// Hands a connection (with whatever bytes are already buffered) to this
  /// shard. Thread-safe; the MPSC inbox entry point. A connection adopted
  /// after shutdown began is closed immediately.
  void Adopt(std::unique_ptr<Conn> conn) MRLQUANT_EXCLUDES(inbox_mu_);

 private:
  void Loop() MRLQUANT_EXCLUDES(inbox_mu_);
  void DrainInbox() MRLQUANT_EXCLUDES(inbox_mu_);

  /// EPOLLIN: drain the socket, maybe migrate, process frames, flush.
  void OnReadable(Conn* conn);
  void OnWritable(Conn* conn);

  /// Hands every complete frame in the input buffer to the handler
  /// (request pipelining: one readiness event, many requests). Responses
  /// accumulate in the connection's write buffer.
  MRLQUANT_HOT void ProcessFrames(Conn* conn);

  /// Routes an unrouted connection to its tenant's home shard once the
  /// first frame is fully buffered. Returns true when the connection was
  /// handed away (caller must not touch it again).
  bool MaybeMigrate(Conn* conn);

  /// Flushes pending responses; arms/disarms EPOLLOUT on partial/complete
  /// drain and finishes deferred closes.
  void FlushOrArm(Conn* conn);

  void CloseConn(Conn* conn);

  std::size_t index_;
  FrameHandler* handler_;
  std::span<const std::unique_ptr<Shard>> peers_;

  EventLoop loop_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};

  /// MPSC handoff inbox; inbox_mu_ is a leaf lock — nothing else is
  /// acquired while it is held (in particular no registry lock), so it
  /// cannot participate in a lock-order cycle.
  Mutex inbox_mu_;
  std::vector<std::unique_ptr<Conn>> inbox_ MRLQUANT_GUARDED_BY(inbox_mu_);

  /// Shard-thread-only: connections keyed by fd.
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
};

}  // namespace server
}  // namespace mrl

#endif  // MRLQUANT_SERVER_SHARD_H_
