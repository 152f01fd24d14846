#include "server/server.h"

#include <chrono>
#include <iostream>
#include <utility>

#include "server/protocol.h"

namespace mrl {
namespace server {

QuantileServer::QuantileServer(ServerOptions options)
    : options_(std::move(options)), registry_(options_.registry) {}

Result<std::unique_ptr<QuantileServer>> QuantileServer::Create(
    ServerOptions options) {
  Result<int> num_shards = FrameServer::ResolveNumShards(options.num_shards);
  if (!num_shards.ok()) return num_shards.status();
  options.num_shards = num_shards.value();
  // Partition the registry exactly as the shards are laid out, so shard i
  // exclusively serves partition i once connections migrate home.
  options.registry.num_partitions =
      static_cast<std::size_t>(num_shards.value());
  std::unique_ptr<QuantileServer> server(
      new QuantileServer(std::move(options)));
  MRL_RETURN_IF_ERROR(server->Start());
  return server;
}

Status QuantileServer::Start() {
  MRL_RETURN_IF_ERROR(registry_.RecoverFromDisk());
  Result<std::unique_ptr<FrameServer>> frames =
      FrameServer::Create(options_.listen, options_.num_shards, this);
  if (!frames.ok()) return frames.status();
  frames_ = std::move(frames).value();
  running_.store(true, std::memory_order_release);
  if (options_.checkpoint_interval_ms > 0 &&
      !options_.registry.checkpoint_path.empty()) {
    housekeeper_ = std::thread(&QuantileServer::HousekeepingLoop, this);
  }
  return Status::OK();
}

QuantileServer::~QuantileServer() { Stop(); }

void QuantileServer::Stop() {
  const bool was_running = running_.exchange(false, std::memory_order_acq_rel);
  if (!was_running) return;
  frames_->Stop();
  if (housekeeper_.joinable()) {
    {
      MutexLock lock(housekeeper_mu_);
      housekeeper_stop_ = true;
    }
    housekeeper_cv_.notify_all();
    housekeeper_.join();
  }
  if (options_.checkpoint_on_stop) {
    const Status status = registry_.CheckpointNow();
    if (!status.ok()) {
      std::cerr << "mrlquantd: checkpoint on stop failed: "
                << status.message() << '\n';
    }
  }
}

void QuantileServer::HandleFrame(std::span<const std::uint8_t> frame,
                                 std::vector<std::uint8_t>* out) {
  // Per-shard-thread request scratch, reused across every connection the
  // shard serves, so steady-state handling allocates nothing.
  thread_local std::vector<double> doubles;
  thread_local std::vector<Value> answers;
  thread_local std::vector<std::uint8_t> blob;

  const Result<FrameView> decoded =
      DecodeFrameBody(frame.data() + 4, frame.size() - 4);
  if (!decoded.ok()) {
    // Framing is intact (the prefix was sane) but the frame is malformed
    // (bad CRC, unknown type/version): attributable to no request.
    return EncodeErrorResponse(MsgType::kResponse, decoded.status(), out);
  }
  const MsgType type = decoded.value().type;
  const std::uint8_t* payload = decoded.value().payload;
  const std::size_t payload_len = decoded.value().payload_len;
  switch (type) {
    case MsgType::kCreateSketch: {
      Result<CreateSketchRequest> req =
          DecodeCreateSketch(payload, payload_len);
      if (!req.ok()) return EncodeErrorResponse(type, req.status(), out);
      const Status status =
          registry_.Create(req.value().name, req.value().config);
      if (!status.ok()) return EncodeErrorResponse(type, status, out);
      return EncodeEmptyOk(type, out);
    }
    case MsgType::kAddBatch: {
      Result<AddBatchRequest> req = DecodeAddBatch(payload, payload_len);
      if (!req.ok()) return EncodeErrorResponse(type, req.status(), out);
      const Status values =
          DecodeDoublesInto(req.value().values_le, req.value().count,
                            /*reject_nan=*/true, &doubles);
      if (!values.ok()) return EncodeErrorResponse(type, values, out);
      Result<std::uint64_t> count =
          registry_.AddBatch(req.value().name, doubles);
      if (!count.ok()) return EncodeErrorResponse(type, count.status(), out);
      return EncodeAddBatchOk(count.value(), out);
    }
    case MsgType::kQuery: {
      Result<QueryRequest> req = DecodeQuery(payload, payload_len);
      if (!req.ok()) return EncodeErrorResponse(type, req.status(), out);
      Result<Value> answer = registry_.Query(req.value().name, req.value().phi);
      if (!answer.ok()) {
        return EncodeErrorResponse(type, answer.status(), out);
      }
      return EncodeQueryOk(answer.value(), out);
    }
    case MsgType::kQueryMulti: {
      Result<QueryMultiRequest> req = DecodeQueryMulti(payload, payload_len);
      if (!req.ok()) return EncodeErrorResponse(type, req.status(), out);
      const Status phis =
          DecodeDoublesInto(req.value().phis_le, req.value().count,
                            /*reject_nan=*/true, &doubles);
      if (!phis.ok()) return EncodeErrorResponse(type, phis, out);
      const Status status = registry_.QueryMany(
          req.value().name, doubles, &answers);
      if (!status.ok()) return EncodeErrorResponse(type, status, out);
      return EncodeQueryMultiOk(answers, out);
    }
    case MsgType::kSnapshot: {
      Result<NameRequest> req = DecodeNameRequest(type, payload, payload_len);
      if (!req.ok()) return EncodeErrorResponse(type, req.status(), out);
      const Status status = registry_.Snapshot(req.value().name, &blob);
      if (!status.ok()) return EncodeErrorResponse(type, status, out);
      return EncodeSnapshotOk(blob, out);
    }
    case MsgType::kDelete: {
      Result<NameRequest> req = DecodeNameRequest(type, payload, payload_len);
      if (!req.ok()) return EncodeErrorResponse(type, req.status(), out);
      const Status status = registry_.Delete(req.value().name);
      if (!status.ok()) return EncodeErrorResponse(type, status, out);
      return EncodeEmptyOk(type, out);
    }
    case MsgType::kStats: {
      Result<NameRequest> req = DecodeNameRequest(type, payload, payload_len);
      if (!req.ok()) return EncodeErrorResponse(type, req.status(), out);
      const RegistryStats global = registry_.GlobalStats();
      StatsReply reply;
      reply.num_tenants = global.num_tenants;
      reply.total_count = global.total_count;
      if (!req.value().name.empty()) {
        const TenantStats tenant = registry_.Stats(req.value().name);
        reply.tenant_present = tenant.present;
        reply.tenant_kind = tenant.config.kind;
        reply.tenant_count = tenant.count;
        reply.tenant_memory_elements = tenant.memory_elements;
      }
      return EncodeStatsOk(reply, out);
    }
    case MsgType::kPing: {
      const Status status = DecodePing(payload, payload_len);
      if (!status.ok()) return EncodeErrorResponse(type, status, out);
      return EncodeEmptyOk(type, out);
    }
    case MsgType::kFetchSummary: {
      Result<NameRequest> req = DecodeNameRequest(type, payload, payload_len);
      if (!req.ok()) return EncodeErrorResponse(type, req.status(), out);
      const Status status =
          registry_.FetchPartial(req.value().name, &blob);
      if (!status.ok()) return EncodeErrorResponse(type, status, out);
      return EncodeFetchSummaryOk(blob, out);
    }
    case MsgType::kRestore: {
      Result<RestoreRequest> req = DecodeRestore(payload, payload_len);
      if (!req.ok()) return EncodeErrorResponse(type, req.status(), out);
      const Status status = registry_.Install(
          req.value().name, req.value().config,
          std::span<const std::uint8_t>(req.value().blob,
                                        req.value().blob_len));
      if (!status.ok()) return EncodeErrorResponse(type, status, out);
      return EncodeEmptyOk(type, out);
    }
    case MsgType::kResponse:
      break;
  }
  EncodeErrorResponse(MsgType::kResponse,
                      Status::InvalidArgument("response frame sent to server"),
                      out);
}

void QuantileServer::HousekeepingLoop() {
  const auto interval =
      std::chrono::milliseconds(options_.checkpoint_interval_ms);
  for (;;) {
    {
      MutexLock lock(housekeeper_mu_);
      // A spurious wakeup just checkpoints early — harmless, and it keeps
      // the stop flag read under its declared capability. The lock is
      // released before CheckpointNow so housekeeper_mu_ stays a true leaf
      // (never held across a registry lock).
      housekeeper_cv_.wait_for(lock.native(), interval);
      if (housekeeper_stop_) return;
    }
    const Status status = registry_.CheckpointNow();
    if (!status.ok()) {
      std::cerr << "mrlquantd: periodic checkpoint failed: "
                << status.message() << '\n';
    }
  }
}

}  // namespace server
}  // namespace mrl
