#ifndef MRLQUANT_SERVER_SERVER_H_
#define MRLQUANT_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "server/frame_server.h"
#include "server/protocol.h"
#include "server/registry.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace mrl {
namespace server {

struct ServerOptions {
  /// Unix-domain socket path to serve on; required.
  std::string uds_path;
  /// Shared-nothing event-loop shards, each a thread with its own epoll
  /// set and registry partition. 0 means one per core. A shard multiplexes
  /// any number of connections, so this is not a concurrent-connection
  /// cap.
  int num_shards = 0;
  /// Registry configuration (tenant cap, checkpoint path).
  /// `num_partitions` is overridden to the resolved shard count so
  /// "partition i" and "shard i" coincide.
  RegistryOptions registry;
  /// When > 0 and a checkpoint path is configured, a housekeeping thread
  /// checkpoints the registry this often.
  int checkpoint_interval_ms = 0;
  /// Checkpoint once more during Stop(). Off by default so tests can model
  /// a crash: whatever the last explicit/periodic checkpoint captured is
  /// exactly what a restarted daemon recovers.
  bool checkpoint_on_stop = false;
};

/// The quantile daemon: a SketchRegistry served on a FrameServer
/// (docs/engineering.md, "The frame server"). Shard i of the frame server
/// is the home shard of registry partition i, so once a connection has
/// moved to its tenant's home shard (on its first frame) steady-state
/// ADD_BATCH touches no cross-shard lock. This class holds only the
/// daemon's side: the registry call behind each request that ServeRequest
/// decodes, and the periodic checkpoint.
class QuantileServer final : private FrameHandler, private RequestHandler {
 public:
  /// Recovers the registry from its checkpoint (if any), then binds
  /// `uds_path` and starts serving.
  static Result<std::unique_ptr<QuantileServer>> Create(ServerOptions options);

  ~QuantileServer();

  QuantileServer(const QuantileServer&) = delete;
  QuantileServer& operator=(const QuantileServer&) = delete;

  /// Stops accepting, winds down shards (closing their connections),
  /// closes sockets. Idempotent.
  void Stop();

  int num_shards() const { return frames_->num_shards(); }

  SketchRegistry& registry() { return registry_; }
  const SketchRegistry& registry() const { return registry_; }

 private:
  explicit QuantileServer(ServerOptions options);

  Status Start();

  void HandleFrame(std::span<const std::uint8_t> frame,
                   std::vector<std::uint8_t>* out) override {
    ServeRequest(frame, *this, out);
  }

  // RequestHandler: one SketchRegistry call each.
  Status CreateSketch(std::string_view name,
                      const TenantConfig& config) override {
    return registry_.Create(name, config);
  }
  Result<std::uint64_t> AddBatch(std::string_view name,
                                 std::span<const Value> values) override {
    return registry_.AddBatch(name, values);
  }
  Result<Value> Query(std::string_view name, double phi) override {
    return registry_.Query(name, phi);
  }
  Status QueryMulti(std::string_view name, std::span<const double> phis,
                    std::vector<Value>* answers) override {
    return registry_.QueryMany(name, phis, answers);
  }
  Status Snapshot(std::string_view name,
                  std::vector<std::uint8_t>* blob) override {
    return registry_.Snapshot(name, blob);
  }
  Status Delete(std::string_view name) override {
    return registry_.Delete(name);
  }
  Result<StatsReply> Stats(std::string_view name) override;
  Status FetchSummary(std::string_view name,
                      std::vector<std::uint8_t>* blob) override {
    return registry_.FetchPartial(name, blob);
  }
  Status Restore(std::string_view name, const TenantConfig& config,
                 std::span<const std::uint8_t> blob) override {
    return registry_.Install(name, config, blob);
  }

  void HousekeepingLoop() MRLQUANT_EXCLUDES(housekeeper_mu_);

  ServerOptions options_;
  SketchRegistry registry_;
  std::unique_ptr<FrameServer> frames_;

  std::atomic<bool> running_{false};

  /// Housekeeper: periodic checkpoints on a condvar timed wait (absent
  /// entirely when no interval is configured — an idle daemon has no
  /// timers at all). housekeeper_mu_ is a leaf lock.
  std::thread housekeeper_;
  Mutex housekeeper_mu_;
  std::condition_variable housekeeper_cv_;
  bool housekeeper_stop_ MRLQUANT_GUARDED_BY(housekeeper_mu_) = false;
};

}  // namespace server
}  // namespace mrl

#endif  // MRLQUANT_SERVER_SERVER_H_
