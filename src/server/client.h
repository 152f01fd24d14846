#ifndef MRLQUANT_SERVER_CLIENT_H_
#define MRLQUANT_SERVER_CLIENT_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "server/protocol.h"
#include "util/status.h"
#include "util/types.h"

namespace mrl {
namespace server {

/// Blocking single-connection client for mrlquantd. The plain methods run
/// one request per round trip; the Pipeline* methods queue many requests
/// and flush them in one write (the server answers in request order). Not
/// thread-safe (open one client per thread — connections are cheap). Request
/// and response buffers are reused across calls, so a steady AddBatch loop
/// allocates nothing client-side either.
///
/// Transport failures (peer gone, short read) surface as Internal and leave
/// the client unusable (`connected()` turns false); server-side failures
/// surface as the server's own Status and the connection stays usable.
class Client {
 public:
  /// `timeout_ms` bounds the wait for room in a full listen backlog (at
  /// least 1 ms; Internal "connect timed out" when it expires); negative
  /// waits indefinitely. I/O on the established connection is unbounded
  /// until SetIoTimeout is called.
  static Result<Client> ConnectUnix(const std::string& path,
                                    int timeout_ms = -1);

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Bounds every subsequent send/recv on this connection (SO_SNDTIMEO /
  /// SO_RCVTIMEO). A deadline that expires surfaces as Internal mentioning
  /// "timed out" and closes the connection — a stalled server is a
  /// transport failure, not a retriable condition on this socket.
  /// `timeout_ms <= 0` removes the bound.
  Status SetIoTimeout(int timeout_ms);

  Status CreateSketch(std::string_view name, const TenantConfig& config);
  /// Returns the tenant's element count after the batch.
  Result<std::uint64_t> AddBatch(std::string_view name,
                                 std::span<const Value> values);
  Result<double> Query(std::string_view name, double phi);
  Status QueryMulti(std::string_view name, std::span<const double> phis,
                    std::vector<Value>* out);
  /// Tenant checkpoint blob; also persists the server registry durably when
  /// the daemon runs with a checkpoint path.
  Status Snapshot(std::string_view name, std::vector<std::uint8_t>* blob);
  Status Delete(std::string_view name);
  /// Pass an empty name for registry-wide statistics only.
  Result<StatsReply> Stats(std::string_view name);
  /// Liveness probe: an empty request the server answers immediately.
  Status Ping();
  /// Fetches tenant `name` as a serialized Section 6 partial summary
  /// (core/partial.h) for router-side fan-out merging.
  Status FetchSummary(std::string_view name, std::vector<std::uint8_t>* blob);
  /// Create-or-replace tenant `name` from a Snapshot checkpoint blob —
  /// replica resync and checkpoint shipping.
  Status RestoreTenant(std::string_view name, const TenantConfig& config,
                       std::span<const std::uint8_t> blob);

  /// Sends `request`, one complete pre-encoded request frame, unchanged and
  /// appends the server's response frame to *response (length prefix
  /// included) without decoding or CRC-checking it: the router's verbatim
  /// forwarding path. Non-OK only on transport failure, which closes the
  /// connection and appends nothing; the server's own verdict is inside
  /// the appended frame.
  Status ForwardFrame(std::span<const std::uint8_t> request,
                      std::vector<std::uint8_t>* response);

  // -------------------------------------------------------------------------
  // Pipelining (docs/wire_protocol.md, "Request pipelining"): queue any
  // number of requests, send them in one write, then collect the responses
  // — the server returns them on this connection in request order, so one
  // round trip amortizes over the whole batch. Queued requests are
  // buffered client-side until PipelineFlush; mixing in a blocking call
  // while a pipeline is queued is an error (FailedPrecondition).

  /// One reply from a pipelined flush, positionally matching the queued
  /// requests.
  struct PipelineReply {
    MsgType request_type = MsgType::kResponse;
    Status status;            ///< the server's status for this request
    std::uint64_t count = 0;  ///< AddBatch: tenant count after the batch
    double value = 0;         ///< Query: the quantile answer
  };

  void PipelineCreateSketch(std::string_view name, const TenantConfig& config);
  void PipelineAddBatch(std::string_view name, std::span<const Value> values);
  void PipelineQuery(std::string_view name, double phi);

  /// Queued-but-unflushed request count.
  std::size_t pipeline_depth() const { return expected_.size(); }

  /// Sends every queued request in one write and reads exactly as many
  /// responses, appending one PipelineReply per request (in order) to
  /// *replies. Returns non-OK only on transport/framing failure (the
  /// connection is closed); per-request server errors land in each reply's
  /// status. `replies` may be null when only the side effects matter —
  /// responses are still read and the per-request statuses discarded.
  Status PipelineFlush(std::vector<PipelineReply>* replies);

 private:
  explicit Client(int fd) : fd_(fd) {}

  /// FailedPrecondition while pipeline requests are queued — the blocking
  /// methods call this BEFORE touching request_, so a misplaced blocking
  /// call cannot clobber a queued pipeline.
  Status CheckNoPipeline() const;

  /// Writes [data, data + n); a transport failure closes the connection.
  Status Send(const std::uint8_t* data, std::size_t n);

  /// Appends one whole frame (prefix included) to *out; a transport or
  /// framing failure closes the connection and leaves *out as it was.
  Status ReadFrame(std::vector<std::uint8_t>* out);

  /// Writes request_, reads one response frame into response_, and decodes
  /// its header. Checks that the response echoes `sent` as request type.
  Result<ResponseView> RoundTrip(MsgType sent);

  /// Reads one response frame into response_ and decodes its header.
  Result<ResponseView> ReadResponse(MsgType sent);

  int fd_ = -1;
  std::vector<std::uint8_t> request_;
  std::vector<std::uint8_t> response_;
  /// Request types queued in request_ awaiting PipelineFlush.
  std::vector<MsgType> expected_;
};

}  // namespace server
}  // namespace mrl

#endif  // MRLQUANT_SERVER_CLIENT_H_
