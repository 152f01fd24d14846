#include "server/server.h"

#include <chrono>
#include <iostream>
#include <utility>

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
      FrameServer::Create(options_.uds_path, options_.num_shards, this);
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

Result<StatsReply> QuantileServer::Stats(std::string_view name) {
  const RegistryStats global = registry_.GlobalStats();
  StatsReply reply;
  reply.num_tenants = global.num_tenants;
  reply.total_count = global.total_count;
  if (!name.empty()) {
    const TenantStats tenant = registry_.Stats(name);
    reply.tenant_present = tenant.present;
    reply.tenant_count = tenant.count;
    reply.tenant_memory_elements = tenant.memory_elements;
  }
  return reply;
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
