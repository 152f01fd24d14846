#include "server/frame_server.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

#include "server/conn.h"
#include "server/protocol.h"
#include "server/shard.h"
#include "util/net.h"

namespace mrl {
namespace server {

namespace {

constexpr unsigned kMaxShards = 256;

int OpenSpareFd() { return ::open("/dev/null", O_RDONLY | O_CLOEXEC); }

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
    const std::string& uds_path, int num_shards, FrameHandler* handler) {
  if (uds_path.empty()) {
    return Status::InvalidArgument("a Unix-domain socket path is required");
  }
  Result<int> shards = ResolveNumShards(num_shards);
  if (!shards.ok()) return shards.status();
  std::unique_ptr<FrameServer> server(new FrameServer());
  MRL_RETURN_IF_ERROR(server->Start(uds_path, shards.value(), handler));
  return server;
}

Status FrameServer::Start(const std::string& uds_path, int num_shards,
                          FrameHandler* handler) {
  spare_fd_ = OpenSpareFd();
  if (spare_fd_ < 0) return net::StatusFromErrno("open(/dev/null)");
  Result<int> fd = net::ListenUnix(uds_path);
  if (!fd.ok()) return fd.status();
  uds_path_ = uds_path;
  listen_fd_ = fd.value();

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
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(uds_path_.c_str());
  }
  if (spare_fd_ >= 0) {
    ::close(spare_fd_);
    spare_fd_ = -1;
  }
}

void FrameServer::AcceptLoop() {
  if (!accept_loop_->Add(listen_fd_, EPOLLIN, &listen_fd_).ok()) return;
  std::size_t next_shard = 0;
  epoll_event events[2];
  for (;;) {
    const int n = accept_loop_->Wait(events, 2, /*timeout_ms=*/-1);
    if (n < 0) return;
    for (int i = 0; i < n; ++i) {
      // Stop() is the only waker.
      if (events[i].data.ptr == nullptr) return;
    }
    for (;;) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        // At EMFILE/ENFILE the pending connection stays queued and the
        // level-triggered listener stays readable: shed it, or the
        // acceptor would spin.
        if ((errno == EMFILE || errno == ENFILE) && ShedOneConnection()) {
          continue;
        }
        break;  // EAGAIN: drained; anything else: retry on the next event
      }
      // Round-robin placement; the shard re-routes to the tenant's home
      // shard when the first frame arrives.
      shards_[next_shard]->Adopt(std::make_unique<Conn>(fd));
      next_shard = (next_shard + 1) % shards_.size();
    }
  }
}

bool FrameServer::ShedOneConnection() {
  if (spare_fd_ < 0) spare_fd_ = OpenSpareFd();
  if (spare_fd_ < 0) return false;
  ::close(spare_fd_);
  const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd >= 0) {
    // Best effort: a fresh socket's send buffer takes this small frame
    // whole, and a client that sent nothing yet still reads why it closed.
    std::vector<std::uint8_t> reply;
    EncodeErrorResponse(
        MsgType::kResponse,
        Status::ResourceExhausted("server is out of file descriptors"),
        &reply);
    ::send(fd, reply.data(), reply.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
    ::close(fd);
  }
  spare_fd_ = OpenSpareFd();
  return fd >= 0;
}

}  // namespace server
}  // namespace mrl
