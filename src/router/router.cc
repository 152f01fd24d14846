#include "router/router.h"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <utility>

#include "core/partial.h"

namespace mrl {
namespace router {

namespace {

using server::Client;
using server::FrameView;
using server::MsgType;
using server::TenantConfig;

/// Warm connections kept per backend. Beyond this, surplus connections are
/// simply closed on release — a burst dials extra sockets, steady state
/// reuses the pool.
constexpr std::size_t kMaxPooledConnections = 8;

/// Seed spacing for partitioned CREATE broadcast: each backend gets
/// config.seed + index * kSeedStride, so partitions sample independently
/// (identical seeds would correlate their Bernoulli draws) while remaining
/// reproducible from the tenant's one configured seed.
constexpr std::uint64_t kSeedStride = 0x9e3779b97f4a7c15ULL;

/// The socket path of backend address "unix:PATH", the one address form.
Result<std::string> ParseBackendAddress(const std::string& address) {
  constexpr std::string_view kPrefix = "unix:";
  if (address.size() <= kPrefix.size() || address.rfind(kPrefix, 0) != 0) {
    return Status::InvalidArgument(
        "backend address must be unix:PATH with a non-empty PATH, got '" +
        address + "'");
  }
  return address.substr(kPrefix.size());
}

/// Whether `response`, a whole response frame from a backend, reports OK.
bool IsOkResponse(std::span<const std::uint8_t> response) {
  Result<FrameView> frame =
      server::DecodeFrameBody(response.data() + 4, response.size() - 4);
  if (!frame.ok()) return false;
  Result<server::ResponseView> view =
      server::DecodeResponse(frame.value().payload, frame.value().payload_len);
  return view.ok() && view.value().ok();
}

/// Tenant config carried by a CREATE_SKETCH or RESTORE payload.
Result<TenantConfig> ConfigOf(MsgType type, const std::uint8_t* payload,
                              std::size_t len) {
  if (type == MsgType::kCreateSketch) {
    Result<server::CreateSketchRequest> req =
        server::DecodeCreateSketch(payload, len);
    if (!req.ok()) return req.status();
    return req.value().config;
  }
  Result<server::RestoreRequest> req = server::DecodeRestore(payload, len);
  if (!req.ok()) return req.status();
  return req.value().config;
}

/// SNAPSHOT, RESTORE and FETCH_SUMMARY of a partitioned tenant: each
/// backend holds one partition, and there is no whole copy to ship or
/// install.
Status NoSingleCopy() {
  return Status::FailedPrecondition(
      "a partitioned tenant has no single checkpoint or partial summary; "
      "use its backends directly");
}

}  // namespace

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      ring_(options_.backends),
      health_(options_.backends.size()) {}

Result<std::unique_ptr<Router>> Router::Create(RouterOptions options) {
  if (options.backends.empty()) {
    return Status::InvalidArgument("router needs at least one backend");
  }
  if (options.replicate && options.backends.size() < 2) {
    return Status::InvalidArgument(
        "replication needs at least two backends");
  }
  std::unique_ptr<Router> router(new Router(std::move(options)));
  MRL_RETURN_IF_ERROR(router->Start());
  return router;
}

Status Router::Start() {
  backends_.reserve(options_.backends.size());
  for (const std::string& address : options_.backends) {
    Result<std::string> path = ParseBackendAddress(address);
    if (!path.ok()) return path.status();
    auto backend = std::make_unique<Backend>();
    backend->path = std::move(path).value();
    backends_.push_back(std::move(backend));
  }

  Result<std::unique_ptr<server::FrameServer>> frames =
      server::FrameServer::Create(options_.uds_path, /*num_shards=*/0, this);
  if (!frames.ok()) return frames.status();
  frames_ = std::move(frames).value();
  health_thread_ = std::thread(&Router::HealthLoop, this);
  return Status::OK();
}

Router::~Router() { Stop(); }

void Router::Stop() {
  // Connections first: a shard mid-RPC finishes its frame before it joins.
  if (frames_ != nullptr) frames_->Stop();
  {
    MutexLock lock(health_mu_);
    health_stop_ = true;
  }
  health_cv_.notify_all();
  if (health_thread_.joinable()) health_thread_.join();
}

// ---------------------------------------------------------------------------
// Backend RPC plumbing

Result<Client> Router::AcquireConnection(Backend& backend) {
  {
    MutexLock lock(backend.mu);
    if (!backend.pool.empty()) {
      Client client = std::move(backend.pool.back());
      backend.pool.pop_back();
      return client;
    }
  }
  Result<Client> client =
      Client::ConnectUnix(backend.path, options_.rpc_timeout_ms);
  if (!client.ok()) return client.status();
  MRL_RETURN_IF_ERROR(client.value().SetIoTimeout(options_.rpc_timeout_ms));
  return client;
}

template <typename Fn>
Status Router::WithBackend(int index, Fn&& rpc, bool* transport_failed) {
  if (transport_failed != nullptr) *transport_failed = false;
  Backend& backend = *backends_[static_cast<std::size_t>(index)];
  Result<Client> conn = AcquireConnection(backend);
  if (!conn.ok()) {
    health_.ReportFailure(index);
    if (transport_failed != nullptr) *transport_failed = true;
    return conn.status();
  }
  Client client = std::move(conn).value();
  const Status status = rpc(client);
  if (client.connected()) {
    // The backend answered (even if with its own error): the transport is
    // healthy.
    health_.ReportSuccess(index);
    MutexLock lock(backend.mu);
    if (backend.pool.size() < kMaxPooledConnections) {
      backend.pool.push_back(std::move(client));
    }
  } else {
    health_.ReportFailure(index);
    if (transport_failed != nullptr) *transport_failed = true;
  }
  return status;
}

bool Router::failed_over(std::string_view name) const {
  MutexLock lock(tenants_mu_);
  auto it = tenants_.find(std::string(name));
  return it != tenants_.end() && it->second.failed_over;
}

bool Router::tracks_tenant(std::string_view name) const {
  MutexLock lock(tenants_mu_);
  return tenants_.find(std::string(name)) != tenants_.end();
}

bool Router::IsPartitioned(std::string_view name) const {
  for (const std::string& tenant : options_.partitioned) {
    if (tenant == name) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Dispatch

void Router::HandleFrame(std::span<const std::uint8_t> request,
                         std::vector<std::uint8_t>* out) {
  // Only the type byte (after the length prefix and version) and the
  // peeked tenant name are read here. A forwarded frame is validated by
  // the backend that serves it — version, CRC, payload, NaN — and its reply
  // returns byte for byte; a name that cannot be peeked places the frame
  // by the empty name, and that backend answers the decode error.
  const auto type = static_cast<MsgType>(request[5]);
  const std::string_view name = server::FrameTenantName(
      request.data() + server::kFrameHeaderSize,
      request.size() - server::kFrameHeaderSize);
  const bool local = type == MsgType::kPing ||
                     (type == MsgType::kStats && name.empty()) ||
                     (type != MsgType::kResponse && IsPartitioned(name));
  if (!local) return ForwardFrame(type, name, request, out);
  // Decoded and validated exactly as a daemon would: the same bytes answer
  // a malformed frame here and on a backend.
  server::ServeRequest(request, *this, out);
}

void Router::ForwardFrame(MsgType type, std::string_view name,
                          std::span<const std::uint8_t> request,
                          std::vector<std::uint8_t>* out) {
  // *out may hold earlier pipelined responses of this connection: the
  // reply is appended after them, and everything below looks only at it.
  const std::size_t start = out->size();
  const int owner = ring_.OwnerOf(name);
  const int replica = options_.replicate ? ring_.ReplicaOf(name) : -1;
  bool known = false;
  bool use_replica = false;
  if (replica >= 0) {
    MutexLock lock(tenants_mu_);
    auto it = tenants_.find(std::string(name));
    known = it != tenants_.end();
    use_replica = known && it->second.failed_over;
  }
  const auto exchange = [&](int index, std::vector<std::uint8_t>* response,
                            bool* transport_failed) {
    return WithBackend(
        index,
        [&](Client& client) { return client.ForwardFrame(request, response); },
        transport_failed);
  };

  int serving = use_replica ? replica : owner;
  bool transport_failed = false;
  Status status = exchange(serving, out, &transport_failed);
  if (transport_failed && known && !use_replica) {
    // The primary is unreachable and a warm replica exists: fail over
    // (sticky) and retry there once. The replica mirrored every
    // acknowledged write, so nothing the client was told about is lost.
    {
      MutexLock lock(tenants_mu_);
      auto it = tenants_.find(std::string(name));
      if (it != tenants_.end()) it->second.failed_over = true;
    }
    serving = replica;
    status = exchange(serving, out, nullptr);
  }
  if (!status.ok()) {
    // A frame of unknown type is attributable to no request: echo
    // kResponse, as a backend would.
    out->resize(start);
    server::EncodeErrorResponse(
        server::IsKnownMsgType(request[5]) ? type : MsgType::kResponse,
        status, out);
  }
  if (replica < 0) return;

  // Replication bookkeeping, all of it keyed off the backend's own reply.
  std::vector<std::uint8_t> other_reply;
  if (type == MsgType::kDelete) {
    // Best effort on the other copy; NotFound / dead backend are fine.
    (void)exchange(serving == replica ? owner : replica, &other_reply,
                   nullptr);
    MutexLock lock(tenants_mu_);
    tenants_.erase(std::string(name));
    return;
  }
  const bool is_write = type == MsgType::kCreateSketch ||
                        type == MsgType::kRestore ||
                        (type == MsgType::kAddBatch && known);
  const std::span<const std::uint8_t> reply(out->data() + start,
                                            out->size() - start);
  if (!is_write || !IsOkResponse(reply)) return;
  // Mirror the same bytes — same config and seed at CREATE, so both copies
  // make identical sampling decisions. A miss (dead replica, stale copy)
  // never fails the client's write; it marks the replica dirty for the
  // health thread's SNAPSHOT→RESTORE resync.
  const bool mirrored =
      serving != owner ||
      (exchange(replica, &other_reply, nullptr).ok() &&
       IsOkResponse(other_reply));
  const auto mark_dirty = [](TenantState& state) {
    state.replica_dirty = true;
    ++state.dirty_gen;
  };

  if (type == MsgType::kAddBatch) {
    if (mirrored) return;
    MutexLock lock(tenants_mu_);
    auto it = tenants_.find(std::string(name));
    if (it != tenants_.end()) mark_dirty(it->second);
    return;
  }
  // CREATE_SKETCH / RESTORE: the backend accepted the frame, so its config
  // decodes.
  Result<TenantConfig> config =
      ConfigOf(type, request.data() + server::kFrameHeaderSize,
               request.size() - server::kFrameHeaderSize);
  if (!config.ok()) return;
  MutexLock lock(tenants_mu_);
  TenantState& state = tenants_[std::string(name)];
  state.config = config.value();
  if (type == MsgType::kCreateSketch) state.replica_dirty = false;
  if (!mirrored) mark_dirty(state);
}

// ---------------------------------------------------------------------------
// Partitioned tenants and fleet-wide STATS

Status Router::CreateSketch(std::string_view name,
                            const TenantConfig& config) {
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    TenantConfig part_config = config;
    part_config.seed =
        config.seed + static_cast<std::uint64_t>(i) * kSeedStride;
    MRL_RETURN_IF_ERROR(WithBackend(static_cast<int>(i), [&](Client& client) {
      return client.CreateSketch(name, part_config);
    }));
  }
  MutexLock lock(tenants_mu_);
  tenants_[std::string(name)].config = config;
  return Status::OK();
}

Result<std::uint64_t> Router::AddBatch(std::string_view name,
                                       std::span<const Value> values) {
  std::vector<int> usable;
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (health_.IsUsable(static_cast<int>(i))) {
      usable.push_back(static_cast<int>(i));
    }
  }
  if (usable.empty()) return Status::Internal("no usable backends");
  std::uint64_t total = 0;
  const std::size_t per = (values.size() + usable.size() - 1) / usable.size();
  for (std::size_t slot = 0; slot < usable.size(); ++slot) {
    // Trailing slots may get an empty slice but are still asked, so
    // `total` covers every partition's count.
    const std::size_t begin = std::min(slot * per, values.size());
    const std::size_t end = std::min(values.size(), begin + per);
    MRL_RETURN_IF_ERROR(WithBackend(usable[slot], [&](Client& client) {
      Result<std::uint64_t> count =
          client.AddBatch(name, values.subspan(begin, end - begin));
      if (!count.ok()) return count.status();
      total += count.value();
      return Status::OK();
    }));
  }
  return total;
}

Status Router::Delete(std::string_view name) {
  Status first_error = Status::OK();
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (!health_.IsUsable(static_cast<int>(i))) continue;
    const Status status = WithBackend(
        static_cast<int>(i), [&](Client& client) { return client.Delete(name); });
    if (!status.ok() && status.code() != StatusCode::kNotFound &&
        first_error.ok()) {
      first_error = status;
    }
  }
  {
    MutexLock lock(tenants_mu_);
    tenants_.erase(std::string(name));
  }
  return first_error;
}

Result<server::StatsReply> Router::Stats(std::string_view name) {
  // Sum across the fleet. With replication the totals count each mirrored
  // copy once per holder — fleet-level occupancy, not distinct data.
  server::StatsReply total;
  bool any = false;
  Status last_error = Status::Internal("no usable backends");
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (!health_.IsUsable(static_cast<int>(i))) continue;
    server::StatsReply reply;
    const Status status = WithBackend(static_cast<int>(i), [&](Client& client) {
      Result<server::StatsReply> r = client.Stats(name);
      if (!r.ok()) return r.status();
      reply = r.value();
      return Status::OK();
    });
    if (!status.ok()) {
      last_error = status;
      continue;
    }
    any = true;
    total.num_tenants += reply.num_tenants;
    total.total_count += reply.total_count;
    if (reply.tenant_present) {
      total.tenant_present = true;
      total.tenant_count += reply.tenant_count;
      total.tenant_memory_elements += reply.tenant_memory_elements;
    }
  }
  if (!any) return last_error;
  return total;
}

Status Router::QueryMulti(std::string_view name, std::span<const double> phis,
                          std::vector<Value>* answers) {
  std::vector<PartialSummary> parts;
  Status last_error = Status::NotFound("tenant '" + std::string(name) +
                                       "' not found on any backend");
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (!health_.IsUsable(static_cast<int>(i))) continue;
    std::vector<std::uint8_t> blob;
    const Status status = WithBackend(static_cast<int>(i), [&](Client& client) {
      return client.FetchSummary(name, &blob);
    });
    if (!status.ok()) {
      // A missing or unreachable partition degrades the answer instead of
      // failing it; only an all-miss propagates.
      last_error = status;
      continue;
    }
    Result<PartialSummary> part = DeserializePartialSummary(
        std::span<const std::uint8_t>(blob.data(), blob.size()));
    if (!part.ok()) return part.status();
    parts.push_back(std::move(part).value());
  }
  if (parts.empty()) return last_error;
  std::uint64_t seed = 1;
  {
    MutexLock lock(tenants_mu_);
    auto it = tenants_.find(std::string(name));
    if (it != tenants_.end()) seed = it->second.config.seed;
  }
  Result<std::vector<Value>> merged = MergePartialQuantiles(
      parts, seed, std::vector<double>(phis.begin(), phis.end()));
  if (!merged.ok()) return merged.status();
  *answers = std::move(merged).value();
  return Status::OK();
}

Result<Value> Router::Query(std::string_view name, double phi) {
  const double phis[1] = {phi};
  std::vector<Value> answers;
  MRL_RETURN_IF_ERROR(QueryMulti(name, phis, &answers));
  return answers[0];
}

Status Router::Snapshot(std::string_view, std::vector<std::uint8_t>*) {
  return NoSingleCopy();
}

Status Router::FetchSummary(std::string_view, std::vector<std::uint8_t>*) {
  return NoSingleCopy();
}

Status Router::Restore(std::string_view, const TenantConfig&,
                       std::span<const std::uint8_t>) {
  return NoSingleCopy();
}

// ---------------------------------------------------------------------------
// Health and replica resync

void Router::HealthLoop() {
  const auto interval = std::chrono::milliseconds(
      options_.health_interval_ms > 0 ? options_.health_interval_ms : 200);
  for (;;) {
    {
      MutexLock lock(health_mu_);
      health_cv_.wait_for(lock.native(), interval);
      if (health_stop_) return;
    }
    ProbeBackends();
    ResyncDirtyReplicas();
  }
}

void Router::ProbeBackends() {
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    // WithBackend feeds the tracker on both outcomes; probing a down
    // backend is also how its recovery is noticed.
    (void)WithBackend(static_cast<int>(i),
                      [](Client& client) { return client.Ping(); });
  }
}

void Router::ResyncDirtyReplicas() {
  if (!options_.replicate) return;
  struct DirtyTenant {
    std::string name;
    TenantConfig config;
    std::uint64_t gen;
  };
  std::vector<DirtyTenant> dirty;
  {
    MutexLock lock(tenants_mu_);
    for (const auto& [name, state] : tenants_) {
      if (state.replica_dirty && !state.failed_over) {
        dirty.push_back({name, state.config, state.dirty_gen});
      }
    }
  }
  for (const DirtyTenant& tenant : dirty) {
    const int owner = ring_.OwnerOf(tenant.name);
    const int replica = ring_.ReplicaOf(tenant.name);
    if (replica < 0 || !health_.IsUsable(owner) ||
        !health_.IsUsable(replica)) {
      continue;
    }
    std::vector<std::uint8_t> blob;
    Status status = WithBackend(owner, [&](Client& client) {
      return client.Snapshot(tenant.name, &blob);
    });
    const bool dropped = status.code() == StatusCode::kNotFound;
    if (status.ok()) {
      status = WithBackend(replica, [&](Client& client) {
        return client.RestoreTenant(tenant.name, tenant.config,
                                    std::span<const std::uint8_t>(blob));
      });
    }
    if (!status.ok() && !dropped) continue;
    MutexLock lock(tenants_mu_);
    auto it = tenants_.find(tenant.name);
    // Act only on the generation we saw: a mirror that failed while the
    // checkpoint was in flight bumped the generation, and that marking must
    // win (the snapshot predates the write it records as missing). A
    // tenant re-created since (clean again, or dirty at a newer generation)
    // is left alone too.
    if (it == tenants_.end() || it->second.failed_over ||
        !it->second.replica_dirty || it->second.dirty_gen != tenant.gen) {
      continue;
    }
    if (dropped) {
      // The owner no longer holds the tenant (LRU eviction, or a DELETE
      // that bypassed this router): there is nothing to resync from, so
      // stop tracking it instead of retrying every health tick.
      tenants_.erase(it);
    } else {
      it->second.replica_dirty = false;
    }
  }
}

}  // namespace router
}  // namespace mrl
