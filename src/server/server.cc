#include "server/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <iostream>
#include <utility>

#include "server/conn.h"
#include "server/protocol.h"
#include "util/logging.h"
#include "util/net.h"

namespace mrl {
namespace server {

namespace {

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

int ResolveNumShards(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

QuantileServer::QuantileServer(ServerOptions options)
    : options_(std::move(options)), registry_(options_.registry) {}

Result<std::unique_ptr<QuantileServer>> QuantileServer::Create(
    ServerOptions options) {
  if (options.uds_path.empty() && options.tcp_port == 0) {
    return Status::InvalidArgument("no listener configured");
  }
  const int num_shards = ResolveNumShards(options.num_shards);
  if (num_shards < 1 || num_shards > 256) {
    return Status::InvalidArgument("num_shards must be in [1, 256]");
  }
  options.num_shards = num_shards;
  // Partition the registry exactly as the shards are laid out, so shard i
  // exclusively serves partition i once connections migrate home.
  options.registry.num_partitions = static_cast<std::size_t>(num_shards);
  if (options.write_buffer_cap == 0) {
    // One max-size response frame (SNAPSHOT of the largest tenant) plus
    // slack for small responses queued behind it.
    options.write_buffer_cap = kMaxPayload + kFrameHeaderSize + (64u << 10);
  }
  std::unique_ptr<QuantileServer> server(
      new QuantileServer(std::move(options)));
  MRL_RETURN_IF_ERROR(server->Start());
  return server;
}

Status QuantileServer::Start() {
  MRL_RETURN_IF_ERROR(registry_.RecoverFromDisk());

  if (!options_.uds_path.empty()) {
    Result<int> fd = net::ListenUnix(options_.uds_path);
    if (!fd.ok()) return fd.status();
    uds_listen_fd_ = fd.value();
    SetNonBlocking(uds_listen_fd_);
  }

  if (options_.tcp_port != 0) {
    Result<int> fd =
        net::ListenLoopbackTcp(options_.tcp_port, &bound_tcp_port_);
    if (!fd.ok()) return fd.status();
    tcp_listen_fd_ = fd.value();
    SetNonBlocking(tcp_listen_fd_);
  }

  Result<EventLoop> accept_loop = EventLoop::Create();
  if (!accept_loop.ok()) return accept_loop.status();
  accept_loop_.emplace(std::move(accept_loop).value());

  shards_.reserve(static_cast<std::size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        static_cast<std::size_t>(i), &registry_, options_.write_buffer_cap));
  }
  for (std::unique_ptr<Shard>& shard : shards_) {
    shard->SetPeers(shards_);
  }
  running_.store(true, std::memory_order_release);
  for (std::unique_ptr<Shard>& shard : shards_) {
    MRL_RETURN_IF_ERROR(shard->Start());
  }
  acceptor_ = std::thread(&QuantileServer::AcceptLoop, this);
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
  if (accept_loop_.has_value()) accept_loop_->Wake();
  if (acceptor_.joinable()) acceptor_.join();
  // Wind the shards down in parallel: signal them all, then reap.
  for (std::unique_ptr<Shard>& shard : shards_) shard->RequestStop();
  for (std::unique_ptr<Shard>& shard : shards_) shard->Join();
  if (housekeeper_.joinable()) {
    {
      MutexLock lock(housekeeper_mu_);
      housekeeper_stop_ = true;
    }
    housekeeper_cv_.notify_all();
    housekeeper_.join();
  }
  if (uds_listen_fd_ >= 0) {
    ::close(uds_listen_fd_);
    uds_listen_fd_ = -1;
    ::unlink(options_.uds_path.c_str());
  }
  if (tcp_listen_fd_ >= 0) {
    ::close(tcp_listen_fd_);
    tcp_listen_fd_ = -1;
  }
  if (options_.checkpoint_on_stop) {
    const Status status = registry_.CheckpointNow();
    if (!status.ok()) {
      std::cerr << "mrlquantd: checkpoint on stop failed: "
                << status.message() << '\n';
    }
  }
}

void QuantileServer::AcceptLoop() {
  int listeners[2];
  int num_listeners = 0;
  if (uds_listen_fd_ >= 0) listeners[num_listeners++] = uds_listen_fd_;
  if (tcp_listen_fd_ >= 0) listeners[num_listeners++] = tcp_listen_fd_;
  for (int i = 0; i < num_listeners; ++i) {
    if (!accept_loop_->Add(listeners[i], EPOLLIN, &listeners[i]).ok()) {
      return;
    }
  }
  std::size_t next_shard = 0;
  epoll_event events[4];
  while (running_.load(std::memory_order_acquire)) {
    const int n = accept_loop_->Wait(events, 4, /*timeout_ms=*/-1);
    if (n < 0) return;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == nullptr) {
        accept_loop_->ConsumeWake();
        continue;  // the while condition re-checks running_
      }
      const int listen_fd = *static_cast<int*>(events[i].data.ptr);
      for (;;) {
        const int fd =
            ::accept4(listen_fd, nullptr, nullptr,
                      SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) break;  // EAGAIN: drained; anything else: retry on event
        if (listen_fd == tcp_listen_fd_) {
          const int one = 1;
          ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        }
        // Round-robin placement; the shard re-routes to the tenant's home
        // shard when the first frame arrives.
        shards_[next_shard]->Adopt(
            std::make_unique<Conn>(fd, options_.write_buffer_cap));
        next_shard = (next_shard + 1) % shards_.size();
      }
    }
  }
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
