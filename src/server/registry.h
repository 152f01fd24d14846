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

#include "core/unknown_n.h"
#include "server/protocol.h"
#include "util/serde.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/types.h"

namespace mrl {
namespace server {

struct RegistryOptions {
  /// Hard cap on live tenants; creating past it evicts the least recently
  /// used tenant.
  std::size_t max_tenants = 64;
  /// Checkpoint file for crash recovery (docs/checkpoint_format.md,
  /// "Registry checkpoint"). Empty disables persistence.
  std::string checkpoint_path;
  /// Ignored: the registry keeps one directory. Still declared only because
  /// perfbench/replay.h sets it; drop it when that file next changes.
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

/// Multi-tenant sketch registry: one directory (a tenant map under a
/// shared mutex) of independently locked tenants. Directory reads are
/// concurrent; create, delete, replace and LRU eviction are exclusive. Each
/// tenant additionally holds its own shared mutex so ingestion into tenant A
/// never blocks queries on tenant B. Within a tenant, AddBatch takes the
/// exclusive lock and queries take the shared lock — exactly the
/// single-writer / concurrent-const-reader contract the sketches document.
///
/// Lock order (statically annotated, checked by -Wthread-safety on Clang):
///
///   checkpoint_mu_  →  mu_ (directory)
///
/// `Tenant::mu` is never taken while `mu_` is held.
///
/// * `mu_` guards the directory. Per-tenant operations (AddBatch/Query/
///   Stats/...) take it shared, only long enough to copy out a
///   shared_ptr<Tenant> handle, release it, and then take the tenant's own
///   lock. Create, Install and Delete take it exclusively; a create that
///   finds the registry full evicts the least recently used tenant under
///   the same exclusive hold, so concurrent creates never overshoot
///   max_tenants (a recovered checkpoint over the cap is evicted down to
///   it by the next create).
/// * `checkpoint_mu_` only keeps two CheckpointNow calls from writing the
///   temp file at once (and their snapshots from landing out of order).
/// * Sketches are built (Create) or decoded (Install, RecoverFromDisk)
///   before the directory lock is taken, and a displaced tenant is freed
///   after it is released.
///
/// Every create builds a fresh sketch. A deleted, evicted or replaced
/// tenant is freed when its last shared_ptr goes: an operation that races
/// a Delete of the same tenant may still apply to the outgoing instance
/// (it holds a shared_ptr) and never crashes.
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
  /// FETCH_SUMMARY op a router fans out before merging.
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
  Status CheckpointNow() MRLQUANT_EXCLUDES(checkpoint_mu_, mu_);

  /// Loads the checkpoint file if it exists (OK and empty registry when it
  /// does not). Fails without touching the registry on a corrupt file.
  Status RecoverFromDisk() MRLQUANT_EXCLUDES(mu_);

  std::size_t size() const MRLQUANT_EXCLUDES(mu_);

 private:
  /// Every tenant is the paper's unknown-N sketch, held by value.
  struct Tenant {
    Tenant(TenantConfig c, UnknownNSketch s)
        : config(c), sketch(std::move(s)) {}
    TenantConfig config;  ///< immutable after construction; read lock-free
    mutable SharedMutex mu;
    UnknownNSketch sketch MRLQUANT_GUARDED_BY(mu);
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

  static Result<UnknownNSketch> MakeSketch(const TenantConfig& config);

  /// Adds tenant `name` (validated by the caller) with the built `sketch`
  /// under the eviction cap. Without `replace` (Create) an existing tenant
  /// is an error; with it (Install) `sketch` replaces any existing tenant.
  Status AddTenant(std::string_view name, const TenantConfig& config,
                   UnknownNSketch sketch, bool replace) MRLQUANT_EXCLUDES(mu_);

  /// Removes the least recently used tenant and hands it to the caller, to
  /// be freed once mu_ is released. The directory must not be empty.
  std::shared_ptr<Tenant> EvictLru() MRLQUANT_REQUIRES(mu_);

  /// Shared-locks the directory and returns the named tenant (bumping its
  /// LRU stamp), or null.
  std::shared_ptr<Tenant> FindTenant(std::string_view name) const
      MRLQUANT_EXCLUDES(mu_);

  /// Next value of the LRU clock (stamps are unique and increasing).
  std::uint64_t NextUse() const {
    return use_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Serializes one tenant's sketch — a u32 length followed by the
  /// sketch's Serialize() blob — under its (at least shared) lock.
  static void EncodeTenantSketch(const Tenant& tenant, BinaryWriter* writer)
      MRLQUANT_REQUIRES_SHARED(tenant.mu);
  /// Builds a sketch from `config` and Restores it from the framed blob;
  /// anything but an MRLQ unknown-N checkpoint is rejected.
  static Result<UnknownNSketch> DecodeTenantSketch(const TenantConfig& config,
                                                   BinaryReader* reader);

  RegistryOptions options_;
  mutable SharedMutex mu_;
  TenantMap tenants_ MRLQUANT_GUARDED_BY(mu_);
  std::uint64_t evictions_ MRLQUANT_GUARDED_BY(mu_) = 0;
  Mutex checkpoint_mu_ MRLQUANT_ACQUIRED_BEFORE(mu_);
  mutable std::atomic<std::uint64_t> use_clock_{0};
  std::atomic<std::uint64_t> checkpoints_{0};
};

}  // namespace server
}  // namespace mrl

#endif  // MRLQUANT_SERVER_REGISTRY_H_
