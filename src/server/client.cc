#include "server/client.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/net.h"

namespace mrl {
namespace server {

using net::IoOutcome;
using net::StatusFromErrno;

namespace {

/// connect(2) with a deadline: flips the socket nonblocking, polls for
/// writability, then reads SO_ERROR for the real outcome before restoring
/// blocking mode. `timeout_ms < 0` is a plain blocking connect.
Status ConnectWithDeadline(int fd, const sockaddr* addr, socklen_t addrlen,
                           int timeout_ms) {
  if (timeout_ms < 0) {
    if (::connect(fd, addr, addrlen) != 0) return StatusFromErrno("connect");
    return Status::OK();
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return StatusFromErrno("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return StatusFromErrno("fcntl(F_SETFL)");
  }
  Status status = Status::OK();
  if (::connect(fd, addr, addrlen) != 0) {
    if (errno == EINPROGRESS || errno == EAGAIN) {
      pollfd pfd{fd, POLLOUT, 0};
      int rc;
      do {
        rc = ::poll(&pfd, 1, timeout_ms);
      } while (rc < 0 && errno == EINTR);
      if (rc == 0) {
        status = Status::Internal("connect timed out");
      } else if (rc < 0) {
        status = StatusFromErrno("poll");
      } else {
        int so_error = 0;
        socklen_t len = sizeof(so_error);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0) {
          status = StatusFromErrno("getsockopt(SO_ERROR)");
        } else if (so_error != 0) {
          status = Status::Internal(std::string("connect: ") +
                                    std::strerror(so_error));
        }
      }
    } else {
      status = StatusFromErrno("connect");
    }
  }
  if (status.ok() && ::fcntl(fd, F_SETFL, flags) != 0) {
    status = StatusFromErrno("fcntl(F_SETFL)");
  }
  return status;
}

}  // namespace

Result<Client> Client::ConnectUnix(const std::string& path, int timeout_ms) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("bad unix socket path");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return StatusFromErrno("socket(AF_UNIX)");
  const Status status = ConnectWithDeadline(
      fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr), timeout_ms);
  if (!status.ok()) {
    ::close(fd);
    return status;
  }
  return Client(fd);
}

Status Client::SetIoTimeout(int timeout_ms) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  timeval tv{};
  if (timeout_ms > 0) {
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = static_cast<long>(timeout_ms % 1000) * 1000;
  }
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return StatusFromErrno("setsockopt(SO_RCVTIMEO)");
  }
  if (::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    return StatusFromErrno("setsockopt(SO_SNDTIMEO)");
  }
  return Status::OK();
}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      request_(std::move(other.request_)),
      response_(std::move(other.response_)),
      expected_(std::move(other.expected_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    request_ = std::move(other.request_);
    response_ = std::move(other.response_);
    expected_ = std::move(other.expected_);
  }
  return *this;
}

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::CheckNoPipeline() const {
  if (expected_.empty()) return Status::OK();
  return Status::FailedPrecondition(
      "pipeline requests queued; call PipelineFlush first");
}

Status Client::Send(const std::uint8_t* data, std::size_t n) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  const IoOutcome wrote = net::SendAll(fd_, data, n);
  if (wrote == IoOutcome::kOk) return Status::OK();
  const Status status = wrote == IoOutcome::kTimeout
                            ? Status::Internal("send timed out")
                            : StatusFromErrno("send");
  Close();
  return status;
}

Status Client::ReadFrame(std::vector<std::uint8_t>* out) {
  const std::size_t start = out->size();
  out->resize(start + 4);
  std::uint32_t body_len = 0;
  IoOutcome got = net::RecvAll(fd_, out->data() + start, 4);
  if (got == IoOutcome::kOk &&
      ReadFrameBodyLen(out->data() + start, &body_len)) {
    out->resize(start + 4 + body_len);
    got = net::RecvAll(fd_, out->data() + start + 4, body_len);
    if (got == IoOutcome::kOk) return Status::OK();
  }
  // Still kOk here: the prefix was refused, and a byte stream cannot be
  // resynchronized after it.
  const bool bad_length = got == IoOutcome::kOk;
  out->resize(start);
  Close();
  if (bad_length) return Status::Internal("response frame length out of range");
  return got == IoOutcome::kTimeout
             ? Status::Internal("read timed out awaiting response")
             : Status::Internal("connection closed while awaiting response");
}

Result<ResponseView> Client::RoundTrip(MsgType sent) {
  MRL_RETURN_IF_ERROR(Send(request_.data(), request_.size()));
  return ReadResponse(sent);
}

Result<ResponseView> Client::ReadResponse(MsgType sent) {
  response_.clear();
  MRL_RETURN_IF_ERROR(ReadFrame(&response_));
  Result<FrameView> frame =
      DecodeFrameBody(response_.data() + 4, response_.size() - 4);
  if (!frame.ok()) {
    Close();
    return frame.status();
  }
  if (frame.value().type != MsgType::kResponse) {
    Close();
    return Status::Internal("server sent a non-response frame");
  }
  Result<ResponseView> view =
      DecodeResponse(frame.value().payload, frame.value().payload_len);
  if (!view.ok()) {
    Close();
    return view.status();
  }
  // kResponse as echoed request type marks a frame the server could not
  // attribute to a request (e.g. CRC mismatch); pass it through.
  if (view.value().request_type != sent &&
      view.value().request_type != MsgType::kResponse) {
    Close();
    return Status::Internal("response does not match request type");
  }
  return view;
}

void Client::PipelineCreateSketch(std::string_view name,
                                  const TenantConfig& config) {
  if (expected_.empty()) request_.clear();
  EncodeCreateSketch(name, config, &request_);
  expected_.push_back(MsgType::kCreateSketch);
}

void Client::PipelineAddBatch(std::string_view name,
                              std::span<const Value> values) {
  if (expected_.empty()) request_.clear();
  EncodeAddBatch(name, values, &request_);
  expected_.push_back(MsgType::kAddBatch);
}

void Client::PipelineQuery(std::string_view name, double phi) {
  if (expected_.empty()) request_.clear();
  EncodeQuery(name, phi, &request_);
  expected_.push_back(MsgType::kQuery);
}

Status Client::PipelineFlush(std::vector<PipelineReply>* replies) {
  if (fd_ < 0) {
    expected_.clear();
    return Status::FailedPrecondition("client not connected");
  }
  if (expected_.empty()) return Status::OK();
  if (Status sent = Send(request_.data(), request_.size()); !sent.ok()) {
    expected_.clear();
    return sent;
  }
  // Responses arrive on this connection in request order (the pipelining
  // guarantee of docs/wire_protocol.md); read exactly one per queued
  // request. response_ is reused per frame, so each reply is materialized
  // before the next read.
  Status result = Status::OK();
  for (std::size_t i = 0; i < expected_.size(); ++i) {
    Result<ResponseView> response = ReadResponse(expected_[i]);
    if (!response.ok()) {
      // Transport/framing failure: the connection is closed; the
      // remaining responses are unrecoverable.
      result = response.status();
      break;
    }
    if (replies == nullptr) continue;
    PipelineReply reply;
    reply.request_type = expected_[i];
    reply.status = response.value().ToStatus();
    if (reply.status.ok()) {
      if (expected_[i] == MsgType::kAddBatch) {
        Result<std::uint64_t> count = DecodeAddBatchOk(response.value());
        if (count.ok()) {
          reply.count = count.value();
        } else {
          reply.status = count.status();
        }
      } else if (expected_[i] == MsgType::kQuery) {
        Result<double> value = DecodeQueryOk(response.value());
        if (value.ok()) {
          reply.value = value.value();
        } else {
          reply.status = value.status();
        }
      }
    }
    replies->push_back(std::move(reply));
  }
  expected_.clear();
  return result;
}

Status Client::CreateSketch(std::string_view name,
                            const TenantConfig& config) {
  if (Status busy = CheckNoPipeline(); !busy.ok()) return busy;
  request_.clear();
  EncodeCreateSketch(name, config, &request_);
  Result<ResponseView> response = RoundTrip(MsgType::kCreateSketch);
  if (!response.ok()) return response.status();
  return response.value().ToStatus();
}

Result<std::uint64_t> Client::AddBatch(std::string_view name,
                                       std::span<const Value> values) {
  if (Status busy = CheckNoPipeline(); !busy.ok()) return busy;
  request_.clear();
  EncodeAddBatch(name, values, &request_);
  Result<ResponseView> response = RoundTrip(MsgType::kAddBatch);
  if (!response.ok()) return response.status();
  if (!response.value().ok()) return response.value().ToStatus();
  return DecodeAddBatchOk(response.value());
}

Result<double> Client::Query(std::string_view name, double phi) {
  if (Status busy = CheckNoPipeline(); !busy.ok()) return busy;
  request_.clear();
  EncodeQuery(name, phi, &request_);
  Result<ResponseView> response = RoundTrip(MsgType::kQuery);
  if (!response.ok()) return response.status();
  if (!response.value().ok()) return response.value().ToStatus();
  return DecodeQueryOk(response.value());
}

Status Client::QueryMulti(std::string_view name, std::span<const double> phis,
                          std::vector<Value>* out) {
  if (Status busy = CheckNoPipeline(); !busy.ok()) return busy;
  request_.clear();
  EncodeQueryMulti(name, phis, &request_);
  Result<ResponseView> response = RoundTrip(MsgType::kQueryMulti);
  if (!response.ok()) return response.status();
  if (!response.value().ok()) return response.value().ToStatus();
  return DecodeQueryMultiOk(response.value(), out);
}

Status Client::Snapshot(std::string_view name,
                        std::vector<std::uint8_t>* blob) {
  if (Status busy = CheckNoPipeline(); !busy.ok()) return busy;
  request_.clear();
  EncodeNameRequest(MsgType::kSnapshot, name, &request_);
  Result<ResponseView> response = RoundTrip(MsgType::kSnapshot);
  if (!response.ok()) return response.status();
  if (!response.value().ok()) return response.value().ToStatus();
  return DecodeBlobOk(response.value(), MsgType::kSnapshot, blob);
}

Status Client::Delete(std::string_view name) {
  if (Status busy = CheckNoPipeline(); !busy.ok()) return busy;
  request_.clear();
  EncodeNameRequest(MsgType::kDelete, name, &request_);
  Result<ResponseView> response = RoundTrip(MsgType::kDelete);
  if (!response.ok()) return response.status();
  return response.value().ToStatus();
}

Result<StatsReply> Client::Stats(std::string_view name) {
  if (Status busy = CheckNoPipeline(); !busy.ok()) return busy;
  request_.clear();
  EncodeNameRequest(MsgType::kStats, name, &request_);
  Result<ResponseView> response = RoundTrip(MsgType::kStats);
  if (!response.ok()) return response.status();
  if (!response.value().ok()) return response.value().ToStatus();
  return DecodeStatsOk(response.value());
}

Status Client::Ping() {
  if (Status busy = CheckNoPipeline(); !busy.ok()) return busy;
  request_.clear();
  EncodePing(&request_);
  Result<ResponseView> response = RoundTrip(MsgType::kPing);
  if (!response.ok()) return response.status();
  return response.value().ToStatus();
}

Status Client::FetchSummary(std::string_view name,
                            std::vector<std::uint8_t>* blob) {
  if (Status busy = CheckNoPipeline(); !busy.ok()) return busy;
  request_.clear();
  EncodeNameRequest(MsgType::kFetchSummary, name, &request_);
  Result<ResponseView> response = RoundTrip(MsgType::kFetchSummary);
  if (!response.ok()) return response.status();
  if (!response.value().ok()) return response.value().ToStatus();
  return DecodeBlobOk(response.value(), MsgType::kFetchSummary, blob);
}

Status Client::RestoreTenant(std::string_view name, const TenantConfig& config,
                             std::span<const std::uint8_t> blob) {
  if (Status busy = CheckNoPipeline(); !busy.ok()) return busy;
  request_.clear();
  EncodeRestore(name, config, blob, &request_);
  Result<ResponseView> response = RoundTrip(MsgType::kRestore);
  if (!response.ok()) return response.status();
  return response.value().ToStatus();
}

Status Client::ForwardFrame(std::span<const std::uint8_t> request,
                            std::vector<std::uint8_t>* response) {
  if (Status busy = CheckNoPipeline(); !busy.ok()) return busy;
  MRL_RETURN_IF_ERROR(Send(request.data(), request.size()));
  return ReadFrame(response);
}

}  // namespace server
}  // namespace mrl
