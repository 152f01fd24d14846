#include "server/frame_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "server/conn.h"
#include "server/shard.h"
#include "util/net.h"

namespace mrl {
namespace server {

namespace {

constexpr unsigned kMaxShards = 256;

}  // namespace

Result<int> FrameServer::ResolveNumShards(int requested) {
  if (requested < 0 || requested > static_cast<int>(kMaxShards)) {
    return Status::InvalidArgument(
        "num_shards must be in [0, 256] (0: one per core)");
  }
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min(hw, kMaxShards));
}

Result<std::unique_ptr<FrameServer>> FrameServer::Create(
    const Listeners& listeners, int num_shards, FrameHandler* handler) {
  if (listeners.uds_path.empty() && listeners.tcp_port < 0) {
    return Status::InvalidArgument("no listener configured");
  }
  if (listeners.tcp_port > 65535) {
    return Status::InvalidArgument("tcp_port must be in [0, 65535]");
  }
  Result<int> shards = ResolveNumShards(num_shards);
  if (!shards.ok()) return shards.status();
  std::unique_ptr<FrameServer> server(new FrameServer());
  MRL_RETURN_IF_ERROR(server->Start(listeners, shards.value(), handler));
  return server;
}

Status FrameServer::Start(const Listeners& listeners, int num_shards,
                          FrameHandler* handler) {
  if (!listeners.uds_path.empty()) {
    Result<int> fd = net::ListenUnix(listeners.uds_path);
    if (!fd.ok()) return fd.status();
    uds_path_ = listeners.uds_path;
    uds_listen_fd_ = fd.value();
  }
  if (listeners.tcp_port >= 0) {
    Result<int> fd = net::ListenLoopbackTcp(
        static_cast<std::uint16_t>(listeners.tcp_port), &bound_tcp_port_);
    if (!fd.ok()) return fd.status();
    tcp_listen_fd_ = fd.value();
  }

  Result<EventLoop> accept_loop = EventLoop::Create();
  if (!accept_loop.ok()) return accept_loop.status();
  accept_loop_.emplace(std::move(accept_loop).value());

  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(static_cast<std::size_t>(i), handler));
  }
  for (std::unique_ptr<Shard>& shard : shards_) {
    shard->SetPeers(shards_);
  }
  for (std::unique_ptr<Shard>& shard : shards_) {
    MRL_RETURN_IF_ERROR(shard->Start());
  }
  acceptor_ = std::thread(&FrameServer::AcceptLoop, this);
  return Status::OK();
}

FrameServer::FrameServer() = default;

FrameServer::~FrameServer() { Stop(); }

void FrameServer::Stop() {
  if (accept_loop_.has_value()) accept_loop_->Wake();
  if (acceptor_.joinable()) acceptor_.join();
  // Wind the shards down in parallel: signal them all, then reap.
  for (std::unique_ptr<Shard>& shard : shards_) shard->RequestStop();
  for (std::unique_ptr<Shard>& shard : shards_) shard->Join();
  if (uds_listen_fd_ >= 0) {
    ::close(uds_listen_fd_);
    uds_listen_fd_ = -1;
    ::unlink(uds_path_.c_str());
  }
  if (tcp_listen_fd_ >= 0) {
    ::close(tcp_listen_fd_);
    tcp_listen_fd_ = -1;
  }
}

void FrameServer::AcceptLoop() {
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
  for (;;) {
    const int n = accept_loop_->Wait(events, 4, /*timeout_ms=*/-1);
    if (n < 0) return;
    for (int i = 0; i < n; ++i) {
      // Stop() is the only waker.
      if (events[i].data.ptr == nullptr) return;
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
        shards_[next_shard]->Adopt(std::make_unique<Conn>(fd));
        next_shard = (next_shard + 1) % shards_.size();
      }
    }
  }
}

}  // namespace server
}  // namespace mrl
