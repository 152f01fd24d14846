#ifndef MRLQUANT_SERVER_SHARD_H_
#define MRLQUANT_SERVER_SHARD_H_

#include <atomic>
#include <cstdint>
#include <memory>
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

/// One event-loop shard of a FrameServer: it owns its epoll set and the
/// connections registered there, and feeds their frames to the server's
/// FrameHandler. A connection stays on the shard that adopted it for its
/// whole life.
///
/// Connections enter through Adopt() — an eventfd-woken inbox fed by the
/// acceptor (round-robin). Everything else runs on the shard's own thread;
/// no other member is shared.
class Shard {
 public:
  explicit Shard(FrameHandler* handler);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  Status Start();

  /// Two-phase shutdown so the server can stop all shards in parallel:
  /// RequestStop() wakes the loop, Join() reaps the thread and closes
  /// every remaining connection.
  void RequestStop();
  void Join();

  /// Hands a freshly accepted connection to this shard. Thread-safe; the
  /// inbox entry point. A connection adopted after shutdown began is
  /// closed immediately.
  void Adopt(std::unique_ptr<Conn> conn) MRLQUANT_EXCLUDES(inbox_mu_);

 private:
  void Loop() MRLQUANT_EXCLUDES(inbox_mu_);
  void DrainInbox() MRLQUANT_EXCLUDES(inbox_mu_);

  /// EPOLLIN: drain the socket, process frames, flush.
  void OnReadable(Conn* conn);
  void OnWritable(Conn* conn);

  /// Hands every complete frame in the input buffer to the handler
  /// (request pipelining: one readiness event, many requests). Responses
  /// accumulate in the connection's write buffer.
  MRLQUANT_HOT void ProcessFrames(Conn* conn);

  /// Flushes pending responses; arms/disarms EPOLLOUT on partial/complete
  /// drain and finishes deferred closes.
  void FlushOrArm(Conn* conn);

  void CloseConn(Conn* conn);

  FrameHandler* handler_;

  EventLoop loop_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};

  /// Handoff inbox; inbox_mu_ is a leaf lock — nothing else is
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
