#include "router/router.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
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

/// Parses "unix:PATH" or dotted-quad "HOST:PORT" into the Backend fields.
Status ParseBackendAddress(const std::string& address, bool* is_unix,
                           std::string* path_or_host, std::uint16_t* port) {
  if (address.rfind("unix:", 0) == 0) {
    *is_unix = true;
    *path_or_host = address.substr(5);
    if (path_or_host->empty()) {
      return Status::InvalidArgument("empty unix socket path in '" + address +
                                     "'");
    }
    return Status::OK();
  }
  const std::size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == address.size()) {
    return Status::InvalidArgument(
        "backend address must be unix:PATH or HOST:PORT, got '" + address +
        "'");
  }
  char* end = nullptr;
  const long parsed = std::strtol(address.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || parsed < 1 || parsed > 65535) {
    return Status::InvalidArgument("bad port in backend address '" + address +
                                   "'");
  }
  *is_unix = false;
  *path_or_host = address.substr(0, colon);
  *port = static_cast<std::uint16_t>(parsed);
  return Status::OK();
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

}  // namespace

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      ring_(options_.backends, options_.vnodes),
      health_(options_.backends.size(), options_.fail_threshold) {}

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
    auto backend = std::make_unique<Backend>();
    backend->address = address;
    MRL_RETURN_IF_ERROR(ParseBackendAddress(address, &backend->is_unix,
                                            &backend->path_or_host,
                                            &backend->port));
    backends_.push_back(std::move(backend));
  }

  Result<std::unique_ptr<server::FrameServer>> frames =
      server::FrameServer::Create(options_.listen, /*num_shards=*/0, this);
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
      backend.is_unix
          ? Client::ConnectUnix(backend.path_or_host, options_.rpc_timeout_ms)
          : Client::ConnectTcp(backend.path_or_host, backend.port,
                               options_.rpc_timeout_ms);
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

  Result<FrameView> frame =
      server::DecodeFrameBody(request.data() + 4, request.size() - 4);
  if (!frame.ok()) {
    // Attributable to no particular request type: echo kResponse, as the
    // backends do for undecodable frames.
    return server::EncodeErrorResponse(MsgType::kResponse, frame.status(),
                                       out);
  }
  const Status status = ServeLocally(frame.value(), out);
  if (!status.ok()) server::EncodeErrorResponse(type, status, out);
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

Status Router::ServeLocally(const FrameView& frame,
                            std::vector<std::uint8_t>* out) {
  const std::uint8_t* payload = frame.payload;
  const std::size_t len = frame.payload_len;
  switch (frame.type) {
    case MsgType::kPing:
      // Answered by the router itself: PING probes the node it reaches.
      MRL_RETURN_IF_ERROR(server::DecodePing(payload, len));
      server::EncodeEmptyOk(frame.type, out);
      return Status::OK();
    case MsgType::kCreateSketch: {
      Result<server::CreateSketchRequest> req =
          server::DecodeCreateSketch(payload, len);
      if (!req.ok()) return req.status();
      return BroadcastCreate(req.value().name, req.value().config, out);
    }
    case MsgType::kAddBatch: {
      Result<server::AddBatchRequest> req =
          server::DecodeAddBatch(payload, len);
      if (!req.ok()) return req.status();
      std::vector<double> values;
      MRL_RETURN_IF_ERROR(server::DecodeDoublesInto(
          req.value().values_le, req.value().count, /*reject_nan=*/true,
          &values));
      return SplitAddBatch(req.value().name, values, out);
    }
    case MsgType::kQuery: {
      Result<server::QueryRequest> req = server::DecodeQuery(payload, len);
      if (!req.ok()) return req.status();
      const double phis[1] = {req.value().phi};
      std::vector<double> answers;
      MRL_RETURN_IF_ERROR(FanOutQuery(req.value().name, phis, &answers));
      server::EncodeQueryOk(answers[0], out);
      return Status::OK();
    }
    case MsgType::kQueryMulti: {
      Result<server::QueryMultiRequest> req =
          server::DecodeQueryMulti(payload, len);
      if (!req.ok()) return req.status();
      std::vector<double> phis;
      MRL_RETURN_IF_ERROR(server::DecodeDoublesInto(
          req.value().phis_le, req.value().count, /*reject_nan=*/true, &phis));
      std::vector<double> answers;
      MRL_RETURN_IF_ERROR(FanOutQuery(req.value().name, phis, &answers));
      server::EncodeQueryMultiOk(answers, out);
      return Status::OK();
    }
    case MsgType::kSnapshot:
    case MsgType::kDelete:
    case MsgType::kStats:
    case MsgType::kFetchSummary: {
      Result<server::NameRequest> req =
          server::DecodeNameRequest(frame.type, payload, len);
      if (!req.ok()) return req.status();
      const std::string_view name = req.value().name;
      if (frame.type == MsgType::kDelete) return BroadcastDelete(name, out);
      if (frame.type == MsgType::kStats) return AggregateStats(name, out);
      if (frame.type == MsgType::kFetchSummary) {
        return SpliceSummaries(name, out);
      }
      return Status::FailedPrecondition(
          "partitioned tenants have no single checkpoint; use "
          "FETCH_SUMMARY or snapshot the backends directly");
    }
    case MsgType::kRestore: {
      Result<server::RestoreRequest> req = server::DecodeRestore(payload, len);
      if (!req.ok()) return req.status();
      return Status::FailedPrecondition(
          "partitioned tenants cannot be restored through the router");
    }
    case MsgType::kResponse:
      break;
  }
  return Status::InvalidArgument("unexpected response frame");
}

// ---------------------------------------------------------------------------
// Partitioned tenants and fleet-wide STATS

Status Router::BroadcastCreate(std::string_view name,
                               const TenantConfig& config,
                               std::vector<std::uint8_t>* out) {
  // Every backend holds one range partition of the tenant, each sampling
  // under its own derived seed.
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    TenantConfig part_config = config;
    part_config.seed =
        config.seed + static_cast<std::uint64_t>(i) * kSeedStride;
    MRL_RETURN_IF_ERROR(WithBackend(static_cast<int>(i), [&](Client& client) {
      return client.CreateSketch(name, part_config);
    }));
  }
  {
    MutexLock lock(tenants_mu_);
    TenantState& state = tenants_[std::string(name)];
    state.config = config;
    state.partitioned = true;
  }
  server::EncodeEmptyOk(MsgType::kCreateSketch, out);
  return Status::OK();
}

Status Router::SplitAddBatch(std::string_view name,
                             const std::vector<double>& values,
                             std::vector<std::uint8_t>* out) {
  // Deal the batch out in contiguous slices, one per usable backend; the
  // reply is the tenant's total count across all partitions.
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
    const std::span<const Value> slice(values.data() + begin, end - begin);
    MRL_RETURN_IF_ERROR(WithBackend(usable[slot], [&](Client& client) {
      Result<std::uint64_t> count = client.AddBatch(name, slice);
      if (!count.ok()) return count.status();
      total += count.value();
      return Status::OK();
    }));
  }
  server::EncodeAddBatchOk(total, out);
  return Status::OK();
}

Status Router::BroadcastDelete(std::string_view name,
                               std::vector<std::uint8_t>* out) {
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
  MRL_RETURN_IF_ERROR(first_error);
  server::EncodeEmptyOk(MsgType::kDelete, out);
  return Status::OK();
}

Status Router::AggregateStats(std::string_view name,
                              std::vector<std::uint8_t>* out) {
  // Sum across the fleet. With replication the totals count each mirrored
  // copy once per holder — fleet-level occupancy, not distinct data.
  server::StatsReply total;
  bool any = false;
  Status last_error = Status::Internal("no usable backends");
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (!health_.IsUsable(static_cast<int>(i))) continue;
    server::StatsReply reply;
    const Status status =
        WithBackend(static_cast<int>(i), [&](Client& client) {
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
      total.tenant_kind = reply.tenant_kind;
      total.tenant_count += reply.tenant_count;
      total.tenant_memory_elements += reply.tenant_memory_elements;
    }
  }
  if (!any) return last_error;
  server::EncodeStatsOk(total, out);
  return Status::OK();
}

Status Router::FetchPartitions(std::string_view name,
                               std::vector<PartialSummary>* parts) {
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
    parts->push_back(std::move(part).value());
  }
  return parts->empty() ? last_error : Status::OK();
}

Status Router::FanOutQuery(std::string_view name, std::span<const double> phis,
                           std::vector<double>* answers) {
  std::vector<PartialSummary> parts;
  MRL_RETURN_IF_ERROR(FetchPartitions(name, &parts));
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

Status Router::SpliceSummaries(std::string_view name,
                               std::vector<std::uint8_t>* out) {
  // Partials share one k, so the union of their buffer sets is itself a
  // valid partial summary — this is what lets routers stack
  // hierarchically.
  std::vector<PartialSummary> parts;
  MRL_RETURN_IF_ERROR(FetchPartitions(name, &parts));
  PartialSummary combined = std::move(parts.front());
  for (std::size_t i = 1; i < parts.size(); ++i) {
    if (parts[i].params.k != combined.params.k) {
      return Status::Internal("partitions disagree on buffer capacity k");
    }
    if (parts[i].params.b > combined.params.b) {
      combined.params = parts[i].params;
    }
    combined.count += parts[i].count;
    for (ShippedBuffer& buf : parts[i].buffers) {
      combined.buffers.push_back(std::move(buf));
    }
  }
  std::vector<std::uint8_t> blob;
  SerializePartialSummary(combined, &blob);
  server::EncodeFetchSummaryOk(blob, out);
  return Status::OK();
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
      if (state.replica_dirty && !state.failed_over && !state.partitioned) {
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
    if (!status.ok()) continue;
    status = WithBackend(replica, [&](Client& client) {
      return client.RestoreTenant(tenant.name, tenant.config,
                                  std::span<const std::uint8_t>(blob));
    });
    if (!status.ok()) continue;
    MutexLock lock(tenants_mu_);
    auto it = tenants_.find(tenant.name);
    // Clear only the generation we shipped: a mirror that failed while the
    // checkpoint was in flight bumped the generation, and that marking must
    // win (the snapshot predates the write it records as missing).
    if (it != tenants_.end() && !it->second.failed_over &&
        it->second.dirty_gen == tenant.gen) {
      it->second.replica_dirty = false;
    }
  }
}

}  // namespace router
}  // namespace mrl
