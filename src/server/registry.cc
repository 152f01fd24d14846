#include "server/registry.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
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
// start rather than drop those tenants. Tenants are one flat list, in the
// directory's iteration order.
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
}

Result<UnknownNSketch> SketchRegistry::MakeSketch(const TenantConfig& config) {
  UnknownNOptions opts;
  opts.eps = config.eps;
  opts.delta = config.delta;
  opts.seed = config.seed;
  return UnknownNSketch::Create(opts);
}

std::shared_ptr<SketchRegistry::Tenant> SketchRegistry::EvictLru() {
  TenantMap::iterator victim = tenants_.begin();
  for (TenantMap::iterator it = tenants_.begin(); it != tenants_.end(); ++it) {
    if (it->second->last_used.load(std::memory_order_relaxed) <
        victim->second->last_used.load(std::memory_order_relaxed)) {
      victim = it;
    }
  }
  std::shared_ptr<Tenant> evicted = std::move(victim->second);
  tenants_.erase(victim);
  ++evictions_;
  return evicted;
}

std::shared_ptr<SketchRegistry::Tenant> SketchRegistry::FindTenant(
    std::string_view name) const {
  ReaderLock lock(mu_);
  TenantMap::const_iterator it = tenants_.find(name);
  if (it == tenants_.end()) return nullptr;
  it->second->last_used.store(NextUse(), std::memory_order_relaxed);
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
  std::shared_ptr<Tenant> tenant =
      std::make_shared<Tenant>(config, std::move(sketch));
  // Declared before the lock, so a replaced or evicted tenant (the last
  // reference, unless a reader holds one) is freed after it is released.
  std::vector<std::shared_ptr<Tenant>> displaced;
  WriterLock lock(mu_);
  tenant->last_used.store(NextUse(), std::memory_order_relaxed);
  TenantMap::iterator it = tenants_.find(name);
  if (it != tenants_.end()) {
    if (!replace) return Status::FailedPrecondition("tenant already exists");
    displaced.push_back(std::exchange(it->second, std::move(tenant)));
    return Status::OK();
  }
  // A recovered checkpoint may hold more tenants than the cap.
  while (tenants_.size() >= options_.max_tenants) {
    displaced.push_back(EvictLru());
  }
  tenants_.emplace(std::string(name), std::move(tenant));
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
  std::shared_ptr<Tenant> deleted;  // freed after the lock is released
  WriterLock lock(mu_);
  TenantMap::iterator it = tenants_.find(name);
  if (it == tenants_.end()) return Status::NotFound("unknown tenant");
  deleted = std::move(it->second);
  tenants_.erase(it);
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
  // tenant handles out, release the directory lock, then visit every
  // tenant under its own lock (see the lock order in registry.h).
  std::vector<std::shared_ptr<Tenant>> snapshot;
  {
    ReaderLock lock(mu_);
    stats.num_tenants = tenants_.size();
    stats.evictions = evictions_;
    snapshot.reserve(tenants_.size());
    for (const auto& [name, tenant] : tenants_) snapshot.push_back(tenant);
  }
  for (const std::shared_ptr<Tenant>& tenant : snapshot) {
    Tenant& t = *tenant;
    ReaderLock lock(t.mu);
    stats.total_count += t.sketch.count();
  }
  stats.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  return stats;
}

std::size_t SketchRegistry::size() const {
  ReaderLock lock(mu_);
  return tenants_.size();
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
  // Held to the end: two checkpoints would race on the temp file, and a
  // slower older snapshot could land after a newer one.
  MutexLock checkpoint_lock(checkpoint_mu_);
  // Same two-pass shape as GlobalStats: directory handles out under the
  // directory lock, then the (slow) per-tenant serialization under
  // Tenant::mu only — a checkpoint never blocks lookups or other tenants.
  std::vector<std::pair<std::string, std::shared_ptr<Tenant>>> snapshot;
  {
    ReaderLock lock(mu_);
    snapshot.assign(tenants_.begin(), tenants_.end());
  }
  // Name order, so the file is a function of the registry's contents and
  // not of the hash table's iteration order or insertion history.
  std::sort(snapshot.begin(), snapshot.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
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
  // Decode into a staging map and swap it in only on full success.
  TenantMap recovered;
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
    if (recovered.find(name) != recovered.end()) {
      return Status::InvalidArgument(
          "registry checkpoint: duplicate tenant name");
    }
    recovered.emplace(
        std::string(name),
        std::make_shared<Tenant>(config, std::move(sketch).value()));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument(
        "registry checkpoint: trailing bytes before CRC");
  }
  for (const auto& [name, tenant] : recovered) {
    tenant->last_used.store(NextUse(), std::memory_order_relaxed);
  }
  // The outgoing directory, now in `recovered`, is freed after the lock.
  WriterLock lock(mu_);
  tenants_.swap(recovered);
  return Status::OK();
}

}  // namespace server
}  // namespace mrl
