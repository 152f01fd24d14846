#include "server/registry.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

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
// (re-ingest or re-snapshot). A v3 file holding a record of a retired
// tenant kind (KLL = 2, deterministic reservoir = 3) is rejected whole by
// the config decoder ("unknown sketch kind N"), so a daemon refuses to
// start rather than drop those tenants. The on-disk format is
// partition-agnostic: tenants are written as one flat list and re-hashed
// into partitions on recovery, so the same file works across --shards
// settings.
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
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? std::string(".") : parent.string();
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

Result<UnknownNSketch> SketchRegistry::MakeSketch(const TenantConfig& config) {
  UnknownNOptions opts;
  opts.eps = config.eps;
  opts.delta = config.delta;
  opts.seed = config.seed;
  return UnknownNSketch::Create(opts);
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
  p.tenants.erase(it);
  live_tenants_.fetch_sub(1, std::memory_order_relaxed);
  evictions_.fetch_add(1, std::memory_order_relaxed);
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
  Result<UnknownNSketch> sketch = MakeSketch(config);
  if (!sketch.ok()) return sketch.status();
  return AddTenant(name, config, std::move(sketch).value(), /*replace=*/false);
}

Status SketchRegistry::AddTenant(std::string_view name,
                                 const TenantConfig& config,
                                 UnknownNSketch sketch, bool replace) {
  Partition& home = PartitionFor(name);

  // Existence pre-check so creating or replacing an existing tenant never
  // evicts.
  bool exists;
  {
    ReaderLock lock(home.mu);
    exists = home.tenants.find(name) != home.tenants.end();
    if (exists && !replace) {
      return Status::FailedPrecondition("tenant already exists");
    }
  }

  if (!exists &&
      live_tenants_.load(std::memory_order_relaxed) >= options_.max_tenants) {
    WriterLock cross(cross_mu_);
    while (live_tenants_.load(std::memory_order_relaxed) >=
           options_.max_tenants) {
      if (!EvictGlobalLru()) break;
    }
  }

  std::shared_ptr<Tenant> tenant =
      std::make_shared<Tenant>(config, std::move(sketch));
  {
    WriterLock lock(home.mu);
    TenantMap::iterator it = home.tenants.find(name);
    if (it != home.tenants.end() && !replace) {
      return Status::FailedPrecondition("tenant already exists");
    }
    tenant->last_used.store(
        use_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);
    if (it == home.tenants.end()) {
      home.tenants.emplace(std::string(name), std::move(tenant));
      live_tenants_.fetch_add(1, std::memory_order_relaxed);
    } else {
      it->second = std::move(tenant);
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
  t.sketch.AddBatch(values);
  return t.sketch.count();
}

Result<Value> SketchRegistry::Query(std::string_view name, double phi) const {
  std::shared_ptr<Tenant> tenant = FindTenant(name);
  if (tenant == nullptr) return Status::NotFound("unknown tenant");
  Tenant& t = *tenant;
  ReaderLock lock(t.mu);
  return t.sketch.Query(phi);
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
  Result<std::vector<Value>> answers = t.sketch.QueryMany(phi_scratch);
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
  p.tenants.erase(it);
  live_tenants_.fetch_sub(1, std::memory_order_relaxed);
  return Status::OK();
}

Status SketchRegistry::FetchPartial(std::string_view name,
                                    std::vector<std::uint8_t>* blob) {
  std::shared_ptr<Tenant> tenant = FindTenant(name);
  if (tenant == nullptr) return Status::NotFound("unknown tenant");
  Tenant& t = *tenant;
  ReaderLock lock(t.mu);
  PartialSummary summary;
  MRL_RETURN_IF_ERROR(t.sketch.ExportPartial(&summary));
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
  Result<UnknownNSketch> sketch = DecodeTenantSketch(config, &reader);
  if (!sketch.ok()) return sketch.status();
  if (reader.Remaining() != 0) {
    return Status::InvalidArgument("install: trailing bytes after sketch");
  }
  return AddTenant(name, config, std::move(sketch).value(), /*replace=*/true);
}

TenantStats SketchRegistry::Stats(std::string_view name) const {
  TenantStats stats;
  std::shared_ptr<Tenant> tenant = FindTenant(name);
  if (tenant == nullptr) return stats;
  Tenant& t = *tenant;
  ReaderLock lock(t.mu);
  stats.present = true;
  stats.config = t.config;
  stats.count = t.sketch.count();
  stats.memory_elements = t.sketch.MemoryElements();
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
    stats.total_count += t.sketch.count();
  }
  stats.evictions = evictions_.load(std::memory_order_relaxed);
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
  writer->PutBlob(tenant.sketch.Serialize());
}

Result<UnknownNSketch> SketchRegistry::DecodeTenantSketch(
    const TenantConfig& config, BinaryReader* reader) {
  std::span<const std::uint8_t> blob;
  if (!reader->GetBlob(&blob)) return reader->status();
  Result<UnknownNSketch> sketch = MakeSketch(config);
  if (!sketch.ok()) return sketch.status();
  MRL_RETURN_IF_ERROR(sketch.value().Restore(blob));
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
    writer.PutString16(name);
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
    std::string_view name;
    if (!reader.GetString16(&name)) return reader.status();
    if (!IsValidTenantName(name)) {
      return Status::InvalidArgument("registry checkpoint: bad tenant name");
    }
    TenantConfig config;
    MRL_RETURN_IF_ERROR(GetTenantConfig(&reader, &config));
    Result<UnknownNSketch> sketch = DecodeTenantSketch(config, &reader);
    if (!sketch.ok()) return sketch.status();
    TenantMap& target = recovered[PartitionOf(name)];
    if (target.find(name) != target.end()) {
      return Status::InvalidArgument(
          "registry checkpoint: duplicate tenant name");
    }
    target.emplace(
        std::string(name),
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
