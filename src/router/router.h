#ifndef MRLQUANT_ROUTER_ROUTER_H_
#define MRLQUANT_ROUTER_ROUTER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "router/hash_ring.h"
#include "router/health.h"
#include "server/client.h"
#include "server/frame_server.h"
#include "server/protocol.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace mrl {
namespace router {

struct RouterOptions {
  /// Unix-domain socket path to serve on; required.
  std::string uds_path;

  /// Backend addresses, each "unix:PATH" (every process runs on one host).
  /// Order is the backend index used by HealthTracker and the test hooks.
  std::vector<std::string> backends;

  /// Mirror every write of a non-partitioned tenant to its ring replica
  /// (same seed at CREATE, so primary and replica hold byte-identical
  /// sketches) and fail over to the replica when the primary dies.
  bool replicate = false;

  /// Health-probe cadence (see router/health.h).
  int health_interval_ms = 200;

  /// Per-RPC budget: bounds backend connect and every send/recv, so a hung
  /// backend surfaces as a failure within this window instead of wedging a
  /// router thread forever.
  int rpc_timeout_ms = 2000;

  /// Tenants range-partitioned across ALL backends instead of owned by
  /// one: CREATE broadcasts (per-backend derived seeds), ADD_BATCH splits
  /// each batch, and queries fan out FETCH_SUMMARY and merge the partial
  /// summaries with the Section 6 rules (core/partial.h).
  std::vector<std::string> partitioned;
};

/// Stateless distributed front for a fleet of mrlquantd backends. Speaks
/// the same wire protocol as the backends on its socket, so existing
/// clients (mrlquant_client, bench drivers) point at the router unchanged;
/// tenant placement, §6 fan-out merging, replication, and failover all
/// happen behind it.
///
/// Forwarding: a frame for a single-owner tenant is sent to its serving
/// backend (ring owner, or the replica once the tenant failed over)
/// byte for byte, CRC included, and the backend's response frame returns
/// to the client byte for byte: the backend is the one validator of the
/// request. On a transport failure ForwardFrame fails a replicated tenant
/// over to its replica (sticky) and retries once; with replication,
/// CREATE_SKETCH / ADD_BATCH / RESTORE are mirrored as the same bytes
/// after the primary answers OK. The router answers only PING, STATS with
/// an empty name, partitioned tenants, and transport failures itself: those
/// frames go through server::ServeRequest, the daemon's own dispatcher, so
/// their decode errors are the daemon's bytes, and the RequestHandler
/// overrides below run the partitioned tenant across the fleet. A
/// partitioned tenant has no single checkpoint or partial summary, so its
/// SNAPSHOT, RESTORE and FETCH_SUMMARY are FailedPrecondition.
///
/// Threading: the router serves on a server::FrameServer, the substrate
/// mrlquantd uses: one acceptor thread and one event-loop shard per core,
/// with buffered framing, request pipelining (responses leave in request
/// order) and the per-connection write-buffer cap. A shard runs
/// HandleFrame inline, so a blocking backend RPC holds the shard for up to
/// `rpc_timeout_ms`, and the other connections on that shard wait
/// behind it. The only other thread is the health/resync thread. Stop()
/// (or the destructor) winds both down.
class Router final : private server::FrameHandler,
                     private server::RequestHandler {
 public:
  /// InvalidArgument when `uds_path` is empty, a backend address is not
  /// "unix:PATH" with a non-empty PATH, or the backend count does not fit
  /// the options.
  static Result<std::unique_ptr<Router>> Create(RouterOptions options);

  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  void Stop();

  std::size_t num_backends() const { return ring_.size(); }

  // -- test hooks -----------------------------------------------------------

  /// Ring owner of `name` (ignoring failover) — tests use it to find which
  /// backend to kill.
  int OwnerIndexOf(std::string_view name) const { return ring_.OwnerOf(name); }
  /// Ring replica of `name` (-1 with fewer than two backends).
  int ReplicaIndexOf(std::string_view name) const {
    return ring_.ReplicaOf(name);
  }
  bool backend_down(int index) const { return !health_.IsUsable(index); }
  /// Whether `name` has been failed over to its replica.
  bool failed_over(std::string_view name) const;
  /// Whether the router holds replication state for `name`.
  bool tracks_tenant(std::string_view name) const;

 private:
  /// One backend: its socket path plus a small pool of warm connections
  /// (AcquireConnection takes one, WithBackend returns it while healthy).
  struct Backend {
    std::string path;  ///< the configured address without "unix:"
    Mutex mu;
    std::vector<server::Client> pool MRLQUANT_GUARDED_BY(mu);
  };

  /// Router-side soft state for a tenant created through this router. Lost
  /// on router restart by design (the router is stateless: placement is
  /// recomputed from the ring, and this map only accelerates
  /// replication/failover bookkeeping).
  struct TenantState {
    server::TenantConfig config;
    /// Sticky: once the primary is declared dead mid-write, all traffic for
    /// this tenant serves from the replica — flapping primaries must not
    /// split the write stream across divergent copies.
    bool failed_over = false;
    /// The replica missed a write; the health thread resyncs it from the
    /// primary (SNAPSHOT → RESTORE) and clears this. `dirty_gen` bumps on
    /// every marking so a resync only clears the generation it actually
    /// shipped — a write that dirtied the replica mid-resync stays dirty.
    bool replica_dirty = false;
    std::uint64_t dirty_gen = 0;
  };

  explicit Router(RouterOptions options);
  Status Start();

  /// Handles one whole request frame (length prefix included), appending
  /// exactly one response frame to *out (the FrameHandler contract).
  void HandleFrame(std::span<const std::uint8_t> request,
                   std::vector<std::uint8_t>* out) override;

  /// The single-owner path: placement, verbatim forwarding, the one
  /// failover retry, mirroring, and tenant bookkeeping (see class comment).
  void ForwardFrame(server::MsgType type, std::string_view name,
                    std::span<const std::uint8_t> request,
                    std::vector<std::uint8_t>* out);

  // RequestHandler: the frames HandleFrame serves itself, which are
  // partitioned tenants and empty-name STATS.
  /// Broadcast: every backend holds one range partition, each sampling
  /// under its own derived seed.
  Status CreateSketch(std::string_view name,
                      const server::TenantConfig& config) override;
  /// Deals the batch out in contiguous slices, one per usable backend, and
  /// returns the tenant's total count across all partitions.
  Result<std::uint64_t> AddBatch(std::string_view name,
                                 std::span<const Value> values) override;
  Result<Value> Query(std::string_view name, double phi) override;
  /// Fans out FETCH_SUMMARY to every usable backend and merges the
  /// partials with MergePartialQuantiles. Missing or unreachable
  /// partitions are skipped; only an all-miss is an error.
  Status QueryMulti(std::string_view name, std::span<const double> phis,
                    std::vector<Value>* answers) override;
  Status Snapshot(std::string_view name,
                  std::vector<std::uint8_t>* blob) override;
  Status Delete(std::string_view name) override;
  /// Sums the backends' replies: the fleet's totals, and the tenant's.
  Result<server::StatsReply> Stats(std::string_view name) override;
  Status FetchSummary(std::string_view name,
                      std::vector<std::uint8_t>* blob) override;
  Status Restore(std::string_view name, const server::TenantConfig& config,
                 std::span<const std::uint8_t> blob) override;

  /// Pooled connection to `backend`, dialing under the RPC timeout when
  /// the pool is empty.
  Result<server::Client> AcquireConnection(Backend& backend);

  /// Runs `rpc` against backend `index` on a pooled connection, feeding the
  /// health tracker: a connection that survives the call reports success
  /// and returns to the pool; a transport failure (connection closed by the
  /// Client, or a failed dial) reports failure, drops the connection, and
  /// sets *transport_failed. Returns the RPC's own status.
  template <typename Fn>
  Status WithBackend(int index, Fn&& rpc, bool* transport_failed = nullptr);

  void HealthLoop();
  void ProbeBackends();
  void ResyncDirtyReplicas();

  bool IsPartitioned(std::string_view name) const;

  RouterOptions options_;
  HashRing ring_;
  mutable HealthTracker health_;
  std::vector<std::unique_ptr<Backend>> backends_;

  mutable Mutex tenants_mu_;
  std::unordered_map<std::string, TenantState> tenants_
      MRLQUANT_GUARDED_BY(tenants_mu_);

  std::unique_ptr<server::FrameServer> frames_;

  std::thread health_thread_;
  Mutex health_mu_;
  std::condition_variable health_cv_;
  bool health_stop_ MRLQUANT_GUARDED_BY(health_mu_) = false;
};

}  // namespace router
}  // namespace mrl

#endif  // MRLQUANT_ROUTER_ROUTER_H_
