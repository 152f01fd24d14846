#ifndef MRLQUANT_SERVER_REGISTRY_H_
#define MRLQUANT_SERVER_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/estimator.h"
#include "server/protocol.h"
#include "util/serde.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/types.h"

namespace mrl {
namespace server {

struct RegistryOptions {
  /// Hard cap on live tenants across all partitions; creating past it
  /// evicts the globally least recently used tenant.
  std::size_t max_tenants = 64;
  /// Checkpoint file for crash recovery (docs/checkpoint_format.md,
  /// "Registry checkpoint"). Empty disables persistence.
  std::string checkpoint_path;
  /// Number of directory partitions, in [1, 256]. Tenants are assigned to
  /// partitions by a stable hash of their name (PartitionOf); each
  /// partition has its own directory lock, so operations on
  /// tenants in different partitions never contend on a shared mutex.
  /// QuantileServer sets this to its frame server's shard count, which
  /// routes each connection to the shard owning its tenant's partition,
  /// making the steady-state ingest path shared-nothing.
  std::size_t num_partitions = 1;
};

struct TenantStats {
  bool present = false;
  TenantConfig config;
  std::uint64_t count = 0;
  std::uint64_t memory_elements = 0;
};

struct RegistryStats {
  std::uint64_t num_tenants = 0;
  std::uint64_t total_count = 0;
  std::uint64_t evictions = 0;    ///< LRU evictions since start
  std::uint64_t checkpoints = 0;  ///< successful CheckpointNow calls
};

/// Multi-tenant sketch registry, partitioned for shared-nothing serving:
/// tenant names hash to one of `num_partitions` directory partitions
/// (PartitionOf), each with its own shared mutex and tenant map. Reads of
/// a partition's directory are concurrent; create/delete/evict are
/// exclusive per partition. Each tenant
/// additionally holds its own shared mutex so ingestion into tenant A
/// never blocks queries on tenant B. Within a tenant, AddBatch takes the
/// exclusive lock and queries take the shared lock — exactly the
/// single-writer / concurrent-const-reader contract the sketches document.
///
/// Lock order (statically annotated, checked by -Wthread-safety on Clang):
///
///   cross_mu_  →  Partition::mu
///
/// `Tenant::mu` is never taken while a partition lock is held.
///
/// * `Partition::mu` guards one partition's directory. Steady-state
///   per-tenant operations (AddBatch/Query/Stats/...) take exactly one
///   partition lock — shared, only long enough to copy out a
///   shared_ptr<Tenant> handle — release it, and then take the tenant's
///   own lock. When the server routes each connection to the shard owning
///   its tenant's partition, that partition lock is only ever taken by one
///   thread and is therefore uncontended: the ingest path crosses no
///   shared lock.
/// * `cross_mu_` survives only for cross-partition operations that must
///   not interleave with each other: CheckpointNow (file write),
///   RecoverFromDisk (directory swap), and global LRU eviction
///   (EvictGlobalLru). Per-partition operations never touch it.
/// * Two partition locks are never held at once: the global LRU scan
///   visits partitions one at a time, and eviction re-locks only the
///   victim's partition.
/// * Sketches are built (Create) or decoded (Install, RecoverFromDisk)
///   before any partition lock is taken.
///
/// Every create builds a fresh sketch. A deleted, evicted or replaced
/// tenant is freed when its last shared_ptr goes: an operation that races
/// a Delete of the same tenant may still apply to the outgoing instance
/// (it holds a shared_ptr) and never crashes. Under concurrent creates the
/// max_tenants cap may be overshot transiently; Create self-heals by
/// evicting until the registry is back under the cap before returning.
class SketchRegistry {
 public:
  explicit SketchRegistry(RegistryOptions options);

  SketchRegistry(const SketchRegistry&) = delete;
  SketchRegistry& operator=(const SketchRegistry&) = delete;

  /// Creates tenant `name`. FailedPrecondition when it already exists,
  /// InvalidArgument on a bad name or config (ValidateTenantConfig — the
  /// same check the wire decoder applies, so in-process callers get it
  /// too).
  Status Create(std::string_view name, const TenantConfig& config);

  /// Ingests a batch into tenant `name` and returns the tenant's element
  /// count after the batch. Steady state performs no heap allocation.
  MRLQUANT_HOT Result<std::uint64_t> AddBatch(std::string_view name,
                                              std::span<const Value> values);

  MRLQUANT_HOT Result<Value> Query(std::string_view name, double phi) const;

  /// Answers every phi in one pass; *out is reused.
  Status QueryMany(std::string_view name, std::span<const double> phis,
                   std::vector<Value>* out) const;

  /// Serializes tenant `name` into *blob (the per-tenant checkpoint format
  /// of docs/checkpoint_format.md) and, when a checkpoint path is
  /// configured, persists the whole registry durably before returning.
  Status Snapshot(std::string_view name, std::vector<std::uint8_t>* blob);

  Status Delete(std::string_view name);

  /// Exports tenant `name` as a serialized Section 6 partial summary
  /// (core/partial.h) without disturbing the live sketch — the
  /// FETCH_SUMMARY op a router fans out before merging. FailedPrecondition
  /// (naming the backend) when the tenant's backend cannot export partials.
  Status FetchPartial(std::string_view name, std::vector<std::uint8_t>* blob);

  /// Create-or-replace tenant `name` from a checkpoint blob — the RESTORE
  /// op a router uses for replica resync and checkpoint shipping. The blob
  /// is restored into a fresh sketch first; only on success does that
  /// sketch replace any existing tenant. A failed restore changes nothing:
  /// an existing tenant keeps its state, and the registry never serves a
  /// partially restored sketch.
  Status Install(std::string_view name, const TenantConfig& config,
                 std::span<const std::uint8_t> blob);

  /// Per-tenant statistics; `present == false` when unknown.
  TenantStats Stats(std::string_view name) const;

  RegistryStats GlobalStats() const;

  /// Atomically (write-temp + rename) persists every tenant to the
  /// configured checkpoint path. No-op returning OK when persistence is
  /// disabled.
  Status CheckpointNow() MRLQUANT_EXCLUDES(cross_mu_);

  /// Loads the checkpoint file if it exists (OK and empty registry when it
  /// does not). Fails without touching the registry on a corrupt file.
  Status RecoverFromDisk() MRLQUANT_EXCLUDES(cross_mu_);

  std::size_t size() const;

  /// TenantNameHash modulo num_partitions. The frame server routes a
  /// connection by the same hash modulo its shard count, so "partition i"
  /// and "shard i" agree by construction.
  std::size_t PartitionOf(std::string_view name) const {
    return static_cast<std::size_t>(TenantNameHash(name)) %
           partitions_.size();
  }
  std::size_t num_partitions() const { return partitions_.size(); }

 private:
  /// Tenants hold their backend through the QuantileEstimator interface —
  /// ingestion, queries and Serialize/Restore checkpointing are all
  /// virtual calls, so adding a backend touches MakeSketch and nothing
  /// else here.
  struct Tenant {
    Tenant(TenantConfig c, std::unique_ptr<QuantileEstimator> s)
        : config(c), sketch(std::move(s)) {}
    TenantConfig config;  ///< immutable after construction; read lock-free
    mutable SharedMutex mu;
    std::unique_ptr<QuantileEstimator> sketch MRLQUANT_GUARDED_BY(mu);
    std::atomic<std::uint64_t> last_used{0};
  };

  /// Transparent string hashing so the hot path looks tenants up by
  /// string_view without materializing a std::string.
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using TenantMap = std::unordered_map<std::string, std::shared_ptr<Tenant>,
                                       StringHash, std::equal_to<>>;

  /// One directory partition: its own lock and tenant map. Heap-allocated
  /// so the SharedMutex never moves.
  struct Partition {
    mutable SharedMutex mu;
    TenantMap tenants MRLQUANT_GUARDED_BY(mu);
  };

  static Result<std::unique_ptr<QuantileEstimator>> MakeSketch(
      const TenantConfig& config);

  Partition& PartitionFor(std::string_view name) const {
    return *partitions_[PartitionOf(name)];
  }

  /// Adds tenant `name` (validated by the caller) with the built `sketch`
  /// under the eviction cap. Without `replace` (Create) an existing tenant
  /// is an error; with it (Install) `sketch` replaces any existing tenant.
  Status AddTenant(std::string_view name, const TenantConfig& config,
                   std::unique_ptr<QuantileEstimator> sketch, bool replace);

  /// Evicts the globally least-recently-used tenant, scanning partitions
  /// one at a time (never holding two partition locks). Returns false when
  /// every partition is empty. Caller holds cross_mu_ (eviction
  /// accounting: concurrent evictors would pick the same victim).
  bool EvictGlobalLru() MRLQUANT_REQUIRES(cross_mu_);

  /// Shared-locks the owning partition and returns the named tenant
  /// (bumping its LRU stamp), or null.
  std::shared_ptr<Tenant> FindTenant(std::string_view name) const;

  /// Serializes one tenant's sketch — uniformly a u32 length followed by
  /// the backend's Serialize() blob — under its (at least shared) lock.
  static void EncodeTenantSketch(const Tenant& tenant, BinaryWriter* writer)
      MRLQUANT_REQUIRES_SHARED(tenant.mu);
  static Result<std::unique_ptr<QuantileEstimator>> DecodeTenantSketch(
      const TenantConfig& config, BinaryReader* reader);

  RegistryOptions options_;
  /// Fixed at construction; the vector itself is immutable after that, so
  /// PartitionFor needs no lock.
  std::vector<std::unique_ptr<Partition>> partitions_;
  /// Cross-partition operations only (checkpoint, recover, global LRU
  /// eviction); see the lock-order comment above.
  mutable SharedMutex cross_mu_;
  /// Live tenants across all partitions — eviction accounting without a
  /// global directory lock.
  std::atomic<std::uint64_t> live_tenants_{0};
  mutable std::atomic<std::uint64_t> use_clock_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> checkpoints_{0};
};

}  // namespace server
}  // namespace mrl

#endif  // MRLQUANT_SERVER_REGISTRY_H_
