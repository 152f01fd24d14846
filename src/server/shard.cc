#include "server/shard.h"

#include <cstring>
#include <utility>

#include "server/protocol.h"
#include "util/logging.h"

namespace mrl {
namespace server {

namespace {

constexpr int kMaxEvents = 64;

/// Per-connection cap on buffered-but-unflushed response bytes: one
/// max-size response frame (SNAPSHOT of the largest tenant) plus slack for
/// small responses queued behind it.
constexpr std::size_t kWriteBufferCap =
    kMaxPayload + kFrameHeaderSize + (std::size_t{64} << 10);

/// The request type named by a frame's type byte; kResponse when no request
/// has that type (as handlers answer frames they cannot attribute).
MsgType RequestTypeOf(const std::uint8_t* frame) {
  const std::uint8_t type = frame[5];
  return IsKnownMsgType(type) ? static_cast<MsgType>(type)
                              : MsgType::kResponse;
}

}  // namespace

Shard::Shard(std::size_t index, FrameHandler* handler)
    : index_(index), handler_(handler) {}

Shard::~Shard() {
  RequestStop();
  Join();
}

Status Shard::Start() {
  Result<EventLoop> loop = EventLoop::Create();
  if (!loop.ok()) return loop.status();
  loop_ = std::move(loop).value();
  thread_ = std::thread(&Shard::Loop, this);
  return Status::OK();
}

void Shard::RequestStop() {
  if (!stopping_.exchange(true, std::memory_order_acq_rel)) {
    loop_.Wake();
  }
}

void Shard::Join() {
  if (thread_.joinable()) thread_.join();
  conns_.clear();  // closes every remaining fd
  MutexLock lock(inbox_mu_);
  inbox_.clear();
}

void Shard::Adopt(std::unique_ptr<Conn> conn) {
  {
    MutexLock lock(inbox_mu_);
    if (!stopping_.load(std::memory_order_acquire)) {
      inbox_.push_back(std::move(conn));
    }
    // else: dropped here, destructor closes the socket.
  }
  loop_.Wake();
}

void Shard::Loop() {
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = loop_.Wait(events, kMaxEvents, /*timeout_ms=*/-1);
    if (n < 0) break;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == nullptr) {
        loop_.ConsumeWake();
        if (stopping_.load(std::memory_order_acquire)) return;
        DrainInbox();
        continue;
      }
      Conn* conn = static_cast<Conn*>(events[i].data.ptr);
      // One epoll_event per fd per Wait: after a handler closes or
      // migrates the connection the pointer is dead, so each branch below
      // is terminal for this event.
      if ((events[i].events & EPOLLIN) != 0) {
        OnReadable(conn);
      } else if ((events[i].events & EPOLLOUT) != 0) {
        OnWritable(conn);
      } else if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConn(conn);
      }
    }
  }
}

void Shard::DrainInbox() {
  // Swap the inbox out under the leaf lock, register outside it.
  std::vector<std::unique_ptr<Conn>> adopted;
  {
    MutexLock lock(inbox_mu_);
    adopted.swap(inbox_);
  }
  for (std::unique_ptr<Conn>& owned : adopted) {
    Conn* conn = owned.get();
    const int fd = conn->fd();
    conns_.emplace(fd, std::move(owned));
    const std::uint32_t interest =
        conn->pending_out() > 0 ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
    conn->want_write = (interest & EPOLLOUT) != 0;
    if (!loop_.Add(fd, interest, conn).ok()) {
      conns_.erase(fd);
      continue;
    }
    // A migrated connection arrives with its first frame already buffered;
    // nothing will re-arm EPOLLIN for userspace bytes, so process now.
    OnReadable(conn);
  }
}

void Shard::OnReadable(Conn* conn) {
  const Conn::IoResult io = conn->FillFromSocket();
  if (io == Conn::IoResult::kError) {
    CloseConn(conn);
    return;
  }
  if (!conn->routed && MaybeMigrate(conn)) return;
  ProcessFrames(conn);
  if (io == Conn::IoResult::kEof) {
    // Peer half-closed: everything decodable has been answered; finish
    // flushing the responses, then close.
    conn->closing = true;
  }
  FlushOrArm(conn);
}

void Shard::OnWritable(Conn* conn) { FlushOrArm(conn); }

bool Shard::MaybeMigrate(Conn* conn) {
  if (peers_.size() < 2) {
    conn->routed = true;
    return false;
  }
  const std::size_t avail = conn->available();
  if (avail < 4) return false;  // prefix not buffered yet: route later
  std::uint32_t body_len = 0;
  if (!ReadFrameBodyLen(conn->data(), &body_len)) {
    conn->routed = true;  // garbage: process (= drop) locally
    return false;
  }
  if (avail < 4 + static_cast<std::size_t>(body_len)) return false;
  conn->routed = true;
  // Peek the tenant name from the first frame's payload (after the 8
  // header bytes the prefix counts). Frames without a routable name
  // (global STATS, malformed) stay where round-robin put them.
  const std::string_view name =
      FrameTenantName(conn->data() + kFrameHeaderSize,
                      body_len - (kFrameHeaderSize - 4));
  if (name.empty()) return false;
  const std::size_t target =
      static_cast<std::size_t>(TenantNameHash(name)) % peers_.size();
  if (target == index_ || peers_[target].get() == this) return false;
  // Hand the whole connection over (its buffered input travels with it;
  // no response has been produced yet, so the write buffer is empty).
  const int fd = conn->fd();
  loop_.Remove(fd);
  auto it = conns_.find(fd);
  MRL_CHECK(it != conns_.end());
  std::unique_ptr<Conn> owned = std::move(it->second);
  conns_.erase(it);
  peers_[target]->Adopt(std::move(owned));
  return true;
}

void Shard::ProcessFrames(Conn* conn) {
  while (!conn->closing) {
    const std::size_t avail = conn->available();
    if (avail < 4) return;
    std::uint32_t body_len = 0;
    if (!ReadFrameBodyLen(conn->data(), &body_len)) {
      // Unframeable: no way to resync the byte stream. Flush what has been
      // answered, then drop the connection.
      conn->closing = true;
      return;
    }
    const std::size_t frame_size = 4 + static_cast<std::size_t>(body_len);
    if (avail < frame_size) return;  // partial frame: wait for more bytes
    const std::size_t pending_before = conn->pending_out();
    handler_->HandleFrame(std::span<const std::uint8_t>(conn->data(),
                                                        frame_size),
                          conn->out());
    // Write-buffer cap: a pipelining client that outpaces its own reads
    // gets its newest response replaced by a ResourceExhausted ERROR and
    // the connection closed — bounded memory, never OOM. A single
    // oversized response with no backlog is let through (it drains
    // incrementally via EPOLLOUT).
    if (pending_before > 0 && conn->pending_out() > kWriteBufferCap) {
      conn->RollbackOut(pending_before);
      EncodeErrorResponse(
          RequestTypeOf(conn->data()),
          Status::ResourceExhausted(
              "write buffer cap exceeded: read responses before "
              "pipelining more requests"),
          conn->out());
      conn->closing = true;
      return;
    }
    conn->Consume(frame_size);
  }
}

void Shard::FlushOrArm(Conn* conn) {
  if (conn->Flush() == Conn::IoResult::kError) {
    CloseConn(conn);
    return;
  }
  if (conn->pending_out() > 0) {
    if (!conn->want_write) {
      conn->want_write = true;
      if (!loop_.Modify(conn->fd(), EPOLLIN | EPOLLOUT, conn).ok()) {
        CloseConn(conn);
      }
    }
    return;
  }
  if (conn->closing) {
    CloseConn(conn);
    return;
  }
  if (conn->want_write) {
    conn->want_write = false;
    if (!loop_.Modify(conn->fd(), EPOLLIN, conn).ok()) CloseConn(conn);
  }
}

void Shard::CloseConn(Conn* conn) {
  loop_.Remove(conn->fd());
  conns_.erase(conn->fd());  // destroys the Conn, closing the fd
}

}  // namespace server
}  // namespace mrl
