#include "server/registry.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "core/det_reservoir.h"
#include "core/kll.h"
#include "core/unknown_n.h"
#include "util/logging.h"
#include "util/serde.h"
#include "util/thread_annotations.h"

namespace mrl {
namespace server {

namespace {

// Registry checkpoint framing (docs/checkpoint_format.md, "Registry
// checkpoint"): header, tenant records, CRC-32 trailer over everything
// before it. Version 2 made the sketch record uniform across backends —
// one u32 length plus the backend's own Serialize() blob — replacing the
// v1 per-kind layouts; version 3 dropped num_shards from the tenant config
// (the wire's config block, PutTenantConfig). Older files are rejected
// (re-ingest or re-snapshot). The on-disk format is partition-agnostic:
// tenants are written as one flat list and re-hashed into partitions on
// recovery, so the same file works across --shards settings.
constexpr std::uint32_t kRegistryMagic = 0x4D524C52;  // "MRLR"
constexpr std::uint8_t kRegistryVersion = 3;
constexpr std::uint64_t kMaxCheckpointTenants = std::uint64_t{1} << 20;

/// Durably replaces `path` with `bytes`: write a temp file, fsync it,
/// rename it over `path`, then fsync the directory so the rename itself
/// survives a power cut. A crash at any point leaves either the old or the
/// new file, never a torn one.
Status WriteFileAtomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open " + tmp + ": " +
                            std::strerror(errno));
  }
  const std::size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool synced = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !synced || !closed) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot write and sync " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " to " + path + ": " +
                            std::strerror(errno));
  }
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  const bool dir_synced = dir_fd >= 0 && ::fsync(dir_fd) == 0;
  if (dir_fd >= 0) ::close(dir_fd);
  if (!dir_synced) {
    return Status::Internal("cannot sync directory " + dir + ": " +
                            std::strerror(errno));
  }
  return Status::OK();
}

/// Reads `path` fully into *out. `*exists` is false (and the status OK)
/// when the file is simply absent.
Status ReadFileBytes(const std::string& path, std::vector<std::uint8_t>* out,
                     bool* exists) {
  *exists = false;
  out->clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return Status::OK();
    return Status::Internal("cannot open " + path + ": " +
                            std::strerror(errno));
  }
  *exists = true;
  std::uint8_t chunk[1 << 16];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    out->insert(out->end(), chunk, chunk + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::Internal("read error on " + path);
  return Status::OK();
}

/// Structural equality for recycling: a pooled sketch can serve any config
/// that solves to the same shape; the seed is replayed by Reset(seed).
bool StructurallyEqual(const TenantConfig& a, const TenantConfig& b) {
  return a.kind == b.kind && a.eps == b.eps && a.delta == b.delta;
}

}  // namespace

SketchRegistry::SketchRegistry(RegistryOptions options)
    : options_(std::move(options)) {
  MRL_CHECK_GE(options_.max_tenants, 1u);
  MRL_CHECK_GE(options_.num_partitions, 1u);
  MRL_CHECK_LE(options_.num_partitions, 256u);
  partitions_.reserve(options_.num_partitions);
  for (std::size_t i = 0; i < options_.num_partitions; ++i) {
    partitions_.push_back(std::make_unique<Partition>());
  }
}

std::uint64_t SketchRegistry::NameHash(std::string_view name) {
  // FNV-1a, 64-bit: stable across platforms and standard-library versions,
  // so tenant → partition routing never changes under recompilation (the
  // checkpoint format does not depend on it either way).
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : name) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

Result<std::unique_ptr<QuantileEstimator>> SketchRegistry::MakeSketch(
    const TenantConfig& config) {
  switch (config.kind) {
    case SketchKind::kUnknownN: {
      UnknownNOptions opts;
      opts.eps = config.eps;
      opts.delta = config.delta;
      opts.seed = config.seed;
      Result<UnknownNSketch> sketch = UnknownNSketch::Create(opts);
      if (!sketch.ok()) return sketch.status();
      return std::unique_ptr<QuantileEstimator>(
          new UnknownNSketch(std::move(sketch).value()));
    }
    case SketchKind::kKll: {
      KllOptions opts;
      opts.eps = config.eps;
      opts.delta = config.delta;
      opts.seed = config.seed;
      Result<KllSketch> sketch = KllSketch::Create(opts);
      if (!sketch.ok()) return sketch.status();
      return std::unique_ptr<QuantileEstimator>(
          new KllSketch(std::move(sketch).value()));
    }
    case SketchKind::kDetReservoir: {
      DetReservoirOptions opts;
      opts.eps = config.eps;
      opts.delta = config.delta;
      opts.seed = config.seed;
      Result<DeterministicReservoirSketch> sketch =
          DeterministicReservoirSketch::Create(opts);
      if (!sketch.ok()) return sketch.status();
      return std::unique_ptr<QuantileEstimator>(
          new DeterministicReservoirSketch(std::move(sketch).value()));
    }
  }
  return Status::InvalidArgument("unknown sketch kind");
}

Result<std::unique_ptr<QuantileEstimator>> SketchRegistry::ObtainSketch(
    Partition& p, const TenantConfig& config) {
  for (std::size_t i = 0; i < p.free_pool.size(); ++i) {
    if (!StructurallyEqual(p.free_pool[i].config, config)) continue;
    std::unique_ptr<QuantileEstimator> sketch =
        std::move(p.free_pool[i].sketch);
    p.free_pool.erase(p.free_pool.begin() + static_cast<std::ptrdiff_t>(i));
    // Reset(seed) makes the recycled sketch byte-identical to a fresh one
    // with this config (tests/reset_test.cc), so recycling is invisible.
    sketch->Reset(config.seed);
    recycled_creates_.fetch_add(1, std::memory_order_relaxed);
    return sketch;
  }
  return MakeSketch(config);
}

void SketchRegistry::RecycleLocked(Partition& p,
                                   std::shared_ptr<Tenant> tenant) {
  if (p.free_pool.size() >= options_.max_free_pool) return;
  Tenant& t = *tenant;
  // Partition::mu → Tenant::mu, the one annotated nesting (see
  // registry.h). The caller holds the last reference, so the lock cannot
  // contend; it exists to move the sketch out under its declared
  // capability.
  WriterLock lock(t.mu);
  p.free_pool.push_back({t.config, std::move(t.sketch)});
}

bool SketchRegistry::EvictGlobalLru() {
  // Phase 1: find the globally oldest tenant, visiting partitions one at a
  // time under their reader locks (two partition locks are never held at
  // once — see the lock-order comment in registry.h).
  std::size_t victim_part = partitions_.size();
  std::string victim_name;
  std::uint64_t oldest = ~std::uint64_t{0};
  for (std::size_t pi = 0; pi < partitions_.size(); ++pi) {
    Partition& p = *partitions_[pi];
    ReaderLock lock(p.mu);
    for (const auto& [name, tenant] : p.tenants) {
      const std::uint64_t used =
          tenant->last_used.load(std::memory_order_relaxed);
      if (used <= oldest) {
        oldest = used;
        victim_part = pi;
        victim_name = name;
      }
    }
  }
  if (victim_part == partitions_.size()) return false;

  // Phase 2: re-lock the victim's partition exclusively and evict. A
  // racing Delete may have beaten us to it — the caller's loop re-checks
  // the live count either way.
  Partition& p = *partitions_[victim_part];
  WriterLock lock(p.mu);
  TenantMap::iterator it = p.tenants.find(victim_name);
  if (it == p.tenants.end()) return true;
  std::shared_ptr<Tenant> tenant = std::move(it->second);
  p.tenants.erase(it);
  live_tenants_.fetch_sub(1, std::memory_order_relaxed);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  // Recycle only when we hold the sole reference: in-flight operations on
  // the evicted tenant keep their own shared_ptr and must never observe
  // the sketch being moved out from under them.
  if (tenant.use_count() == 1) RecycleLocked(p, std::move(tenant));
  return true;
}

std::shared_ptr<SketchRegistry::Tenant> SketchRegistry::FindTenant(
    std::string_view name) const {
  const Partition& p = PartitionFor(name);
  ReaderLock lock(p.mu);
  TenantMap::const_iterator it = p.tenants.find(name);
  if (it == p.tenants.end()) return nullptr;
  it->second->last_used.store(
      use_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  return it->second;
}

Status SketchRegistry::Create(std::string_view name,
                              const TenantConfig& config) {
  if (!IsValidTenantName(name)) {
    return Status::InvalidArgument("invalid tenant name");
  }
  MRL_RETURN_IF_ERROR(ValidateTenantConfig(config));
  return AddTenant(name, config, nullptr);
}

Status SketchRegistry::AddTenant(std::string_view name,
                                 const TenantConfig& config,
                                 std::unique_ptr<QuantileEstimator> sketch) {
  const bool replace = sketch != nullptr;
  Partition& home = PartitionFor(name);

  const auto exists_error = [&](const Tenant& existing) {
    const SketchKind have = existing.config.kind;
    if (have != config.kind) {
      return Status::FailedPrecondition(
          "tenant already exists with kind '" +
          std::string(SketchKindName(have)) + "', requested '" +
          std::string(SketchKindName(config.kind)) + "'");
    }
    return Status::FailedPrecondition("tenant already exists");
  };

  // Existence pre-check so creating or replacing an existing tenant never
  // evicts.
  bool exists;
  {
    ReaderLock lock(home.mu);
    TenantMap::const_iterator it = home.tenants.find(name);
    exists = it != home.tenants.end();
    if (exists && !replace) return exists_error(*it->second);
  }

  // Free a slot before building the sketch: the evicted tenant's sketch
  // lands in a free pool and — when it was in this partition and is
  // structurally compatible — serves this very create allocation-free.
  if (!exists &&
      live_tenants_.load(std::memory_order_relaxed) >= options_.max_tenants) {
    WriterLock cross(cross_mu_);
    while (live_tenants_.load(std::memory_order_relaxed) >=
           options_.max_tenants) {
      if (!EvictGlobalLru()) break;
    }
  }

  {
    WriterLock lock(home.mu);
    TenantMap::iterator it = home.tenants.find(name);
    if (it != home.tenants.end() && !replace) return exists_error(*it->second);
    if (!replace) {
      Result<std::unique_ptr<QuantileEstimator>> obtained =
          ObtainSketch(home, config);
      if (!obtained.ok()) return obtained.status();
      sketch = std::move(obtained).value();
    }
    std::shared_ptr<Tenant> tenant =
        std::make_shared<Tenant>(config, std::move(sketch));
    tenant->last_used.store(
        use_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
    if (it == home.tenants.end()) {
      home.tenants.emplace(std::string(name), std::move(tenant));
      live_tenants_.fetch_add(1, std::memory_order_relaxed);
    } else {
      std::shared_ptr<Tenant> old =
          std::exchange(it->second, std::move(tenant));
      if (old.use_count() == 1) RecycleLocked(home, std::move(old));
    }
  }

  // Concurrent creates can overshoot the cap transiently (each saw a free
  // slot); self-heal before returning so the cap holds at quiescence.
  if (live_tenants_.load(std::memory_order_relaxed) > options_.max_tenants) {
    WriterLock cross(cross_mu_);
    while (live_tenants_.load(std::memory_order_relaxed) >
           options_.max_tenants) {
      if (!EvictGlobalLru()) break;
    }
  }
  return Status::OK();
}

Result<std::uint64_t> SketchRegistry::AddBatch(std::string_view name,
                                               std::span<const Value> values) {
  std::shared_ptr<Tenant> tenant = FindTenant(name);
  if (tenant == nullptr) return Status::NotFound("unknown tenant");
  Tenant& t = *tenant;
  WriterLock lock(t.mu);
  t.sketch->AddBatch(values);
  return t.sketch->count();
}

Result<Value> SketchRegistry::Query(std::string_view name, double phi) const {
  std::shared_ptr<Tenant> tenant = FindTenant(name);
  if (tenant == nullptr) return Status::NotFound("unknown tenant");
  Tenant& t = *tenant;
  ReaderLock lock(t.mu);
  return t.sketch->Query(phi);
}

Status SketchRegistry::QueryMany(std::string_view name,
                                 std::span<const double> phis,
                                 std::vector<Value>* out) const {
  std::shared_ptr<Tenant> tenant = FindTenant(name);
  if (tenant == nullptr) return Status::NotFound("unknown tenant");
  // The sketch QueryMany APIs take a vector; stage the span through
  // thread-local scratch so repeated calls reuse capacity.
  thread_local std::vector<double> phi_scratch;
  phi_scratch.assign(phis.begin(), phis.end());
  Tenant& t = *tenant;
  ReaderLock lock(t.mu);
  Result<std::vector<Value>> answers = t.sketch->QueryMany(phi_scratch);
  if (!answers.ok()) return answers.status();
  *out = std::move(answers).value();
  return Status::OK();
}

Status SketchRegistry::Snapshot(std::string_view name,
                                std::vector<std::uint8_t>* blob) {
  std::shared_ptr<Tenant> tenant = FindTenant(name);
  if (tenant == nullptr) return Status::NotFound("unknown tenant");
  {
    Tenant& t = *tenant;
    ReaderLock lock(t.mu);
    blob->clear();
    BinaryWriter writer(blob);
    EncodeTenantSketch(t, &writer);
  }
  if (!options_.checkpoint_path.empty()) {
    MRL_RETURN_IF_ERROR(CheckpointNow());
  }
  return Status::OK();
}

Status SketchRegistry::Delete(std::string_view name) {
  Partition& p = PartitionFor(name);
  WriterLock lock(p.mu);
  TenantMap::iterator it = p.tenants.find(name);
  if (it == p.tenants.end()) return Status::NotFound("unknown tenant");
  std::shared_ptr<Tenant> tenant = std::move(it->second);
  p.tenants.erase(it);
  live_tenants_.fetch_sub(1, std::memory_order_relaxed);
  if (tenant.use_count() == 1) RecycleLocked(p, std::move(tenant));
  return Status::OK();
}

Status SketchRegistry::FetchPartial(std::string_view name,
                                    std::vector<std::uint8_t>* blob) {
  std::shared_ptr<Tenant> tenant = FindTenant(name);
  if (tenant == nullptr) return Status::NotFound("unknown tenant");
  Tenant& t = *tenant;
  ReaderLock lock(t.mu);
  if (!t.sketch->SupportsPartialExport()) {
    return Status::FailedPrecondition(
        "backend '" + t.sketch->name() + "' does not support partial export");
  }
  PartialSummary summary;
  MRL_RETURN_IF_ERROR(t.sketch->ExportPartial(&summary));
  blob->clear();
  SerializePartialSummary(summary, blob);
  return Status::OK();
}

Status SketchRegistry::Install(std::string_view name,
                               const TenantConfig& config,
                               std::span<const std::uint8_t> blob) {
  if (!IsValidTenantName(name)) {
    return Status::InvalidArgument("invalid tenant name");
  }
  MRL_RETURN_IF_ERROR(ValidateTenantConfig(config));
  // The blob is Snapshot's wire form: a u32-length-prefixed sketch blob,
  // same framing as a checkpoint entry. Restore it into a fresh sketch
  // before touching the directory, so a bad blob leaves any existing
  // tenant exactly as it was.
  BinaryReader reader(blob.data(), blob.size());
  Result<std::unique_ptr<QuantileEstimator>> sketch =
      DecodeTenantSketch(config, &reader);
  if (!sketch.ok()) return sketch.status();
  if (reader.Remaining() != 0) {
    return Status::InvalidArgument("install: trailing bytes after sketch");
  }
  return AddTenant(name, config, std::move(sketch).value());
}

TenantStats SketchRegistry::Stats(std::string_view name) const {
  TenantStats stats;
  std::shared_ptr<Tenant> tenant = FindTenant(name);
  if (tenant == nullptr) return stats;
  Tenant& t = *tenant;
  ReaderLock lock(t.mu);
  stats.present = true;
  stats.config = t.config;
  stats.count = t.sketch->count();
  stats.memory_elements = t.sketch->MemoryElements();
  return stats;
}

RegistryStats SketchRegistry::GlobalStats() const {
  RegistryStats stats;
  // Directory pass and tenant pass deliberately do not nest: copy the
  // tenant handles out partition by partition, release each partition
  // lock, then visit every tenant under its own lock (lock order: never
  // hold a partition lock across sketch work; see registry.h).
  std::vector<std::shared_ptr<Tenant>> snapshot;
  for (const std::unique_ptr<Partition>& part : partitions_) {
    const Partition& p = *part;
    ReaderLock lock(p.mu);
    stats.num_tenants += p.tenants.size();
    snapshot.reserve(snapshot.size() + p.tenants.size());
    for (const auto& [name, tenant] : p.tenants) snapshot.push_back(tenant);
  }
  for (const std::shared_ptr<Tenant>& tenant : snapshot) {
    Tenant& t = *tenant;
    ReaderLock lock(t.mu);
    stats.total_count += t.sketch->count();
  }
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.recycled_creates = recycled_creates_.load(std::memory_order_relaxed);
  stats.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  return stats;
}

std::size_t SketchRegistry::size() const {
  std::size_t total = 0;
  for (const std::unique_ptr<Partition>& part : partitions_) {
    const Partition& p = *part;
    ReaderLock lock(p.mu);
    total += p.tenants.size();
  }
  return total;
}

void SketchRegistry::EncodeTenantSketch(const Tenant& tenant,
                                        BinaryWriter* writer) {
  const std::vector<std::uint8_t> blob = tenant.sketch->Serialize();
  writer->PutU32(static_cast<std::uint32_t>(blob.size()));
  writer->PutBytes(blob.data(), blob.size());
}

Result<std::unique_ptr<QuantileEstimator>> SketchRegistry::DecodeTenantSketch(
    const TenantConfig& config, BinaryReader* reader) {
  std::uint32_t len;
  const std::uint8_t* blob;
  if (!reader->GetU32(&len) || !reader->GetBytes(len, &blob)) {
    return reader->status();
  }
  Result<std::unique_ptr<QuantileEstimator>> sketch = MakeSketch(config);
  if (!sketch.ok()) return sketch.status();
  MRL_RETURN_IF_ERROR(
      sketch.value()->Restore(std::span<const std::uint8_t>(blob, len)));
  return sketch;
}

Status SketchRegistry::CheckpointNow() {
  if (options_.checkpoint_path.empty()) return Status::OK();
  // cross_mu_ serializes whole-registry operations against each other
  // (two concurrent checkpoints would race on the temp file; a checkpoint
  // racing a recover would interleave half-swapped directories).
  WriterLock cross(cross_mu_);
  // Same two-pass shape as GlobalStats: directory handles out under the
  // partition locks, then the (slow) per-tenant serialization under
  // Tenant::mu only — a checkpoint never blocks lookups or other tenants.
  std::vector<std::pair<std::string, std::shared_ptr<Tenant>>> snapshot;
  for (const std::unique_ptr<Partition>& part : partitions_) {
    const Partition& p = *part;
    ReaderLock lock(p.mu);
    snapshot.reserve(snapshot.size() + p.tenants.size());
    for (const auto& [name, tenant] : p.tenants) {
      snapshot.emplace_back(name, tenant);
    }
  }
  std::vector<std::uint8_t> bytes;
  BinaryWriter writer(&bytes);
  writer.PutU32(kRegistryMagic);
  writer.PutU8(kRegistryVersion);
  writer.PutU64(snapshot.size());
  for (const auto& [name, tenant] : snapshot) {
    writer.PutU16(static_cast<std::uint16_t>(name.size()));
    writer.PutBytes(reinterpret_cast<const std::uint8_t*>(name.data()),
                    name.size());
    Tenant& t = *tenant;
    PutTenantConfig(t.config, &writer);
    ReaderLock lock(t.mu);
    EncodeTenantSketch(t, &writer);
  }
  writer.PutU32(Crc32(bytes.data(), bytes.size()));
  MRL_RETURN_IF_ERROR(WriteFileAtomic(options_.checkpoint_path, bytes));
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status SketchRegistry::RecoverFromDisk() {
  if (options_.checkpoint_path.empty()) return Status::OK();
  std::vector<std::uint8_t> bytes;
  bool exists;
  MRL_RETURN_IF_ERROR(
      ReadFileBytes(options_.checkpoint_path, &bytes, &exists));
  if (!exists) return Status::OK();
  if (bytes.size() < 4) {
    return Status::InvalidArgument("registry checkpoint truncated");
  }
  const std::size_t body_len = bytes.size() - 4;
  if (Crc32(bytes.data(), body_len) != LoadU32Le(bytes.data() + body_len)) {
    return Status::InvalidArgument("registry checkpoint CRC mismatch");
  }
  BinaryReader reader(bytes.data(), body_len);
  std::uint32_t magic;
  std::uint8_t version;
  std::uint64_t num_tenants;
  if (!reader.GetU32(&magic) || !reader.GetU8(&version) ||
      !reader.GetU64(&num_tenants)) {
    return reader.status();
  }
  if (magic != kRegistryMagic) {
    return Status::InvalidArgument("not a registry checkpoint");
  }
  if (version != kRegistryVersion) {
    return Status::InvalidArgument("unsupported registry checkpoint version");
  }
  if (num_tenants > kMaxCheckpointTenants) {
    return Status::InvalidArgument("registry checkpoint tenant count absurd");
  }
  // Decode into per-partition staging maps (tenants re-hash to partitions
  // here — the file is a flat list) and swap in only on full success.
  std::vector<TenantMap> recovered(partitions_.size());
  std::uint64_t recovered_count = 0;
  for (std::uint64_t i = 0; i < num_tenants; ++i) {
    std::uint16_t name_len;
    const std::uint8_t* name_bytes;
    if (!reader.GetU16(&name_len) || !reader.GetBytes(name_len, &name_bytes)) {
      return reader.status();
    }
    std::string name(reinterpret_cast<const char*>(name_bytes), name_len);
    if (!IsValidTenantName(name)) {
      return Status::InvalidArgument("registry checkpoint: bad tenant name");
    }
    TenantConfig config;
    MRL_RETURN_IF_ERROR(GetTenantConfig(&reader, &config));
    Result<std::unique_ptr<QuantileEstimator>> sketch =
        DecodeTenantSketch(config, &reader);
    if (!sketch.ok()) return sketch.status();
    TenantMap& target = recovered[PartitionOf(name)];
    if (target.find(name) != target.end()) {
      return Status::InvalidArgument(
          "registry checkpoint: duplicate tenant name");
    }
    target.emplace(
        std::move(name),
        std::make_shared<Tenant>(config, std::move(sketch).value()));
    ++recovered_count;
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument(
        "registry checkpoint: trailing bytes before CRC");
  }
  WriterLock cross(cross_mu_);
  for (std::size_t pi = 0; pi < partitions_.size(); ++pi) {
    Partition& p = *partitions_[pi];
    WriterLock lock(p.mu);
    p.tenants = std::move(recovered[pi]);
    for (const auto& [name, tenant] : p.tenants) {
      tenant->last_used.store(
          use_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
    }
  }
  live_tenants_.store(recovered_count, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace server
}  // namespace mrl
