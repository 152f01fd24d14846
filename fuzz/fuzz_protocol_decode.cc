// Fuzz harness for the mrlquantd wire protocol (src/server/protocol.h).
//
// A frame is untrusted input: anything that can open the daemon's socket
// can send arbitrary bytes. The contract under test is that the protocol
// NEVER aborts or reads out of bounds, and that every request frame gets
// exactly one reply the protocol's own client side can read. The harness
// walks the input as a stream (the server's framing loop) and serves each
// frame through ServeRequest — the one dispatcher of the daemon and of the
// router's locally served frames — on a stub handler, so every request
// decoder and validator runs exactly as it does in both tiers. Response
// frames also go through every response decoder, as the client library
// would drive them.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "server/protocol.h"
#include "util/status.h"

namespace {

using mrl::Result;
using mrl::Status;
using mrl::Value;
using mrl::server::MsgType;
using mrl::server::StatsReply;
using mrl::server::TenantConfig;

/// Succeeds at everything with the smallest well-formed answer, so every
/// OK encoder runs as well as every error path.
class StubHandler final : public mrl::server::RequestHandler {
 public:
  Status CreateSketch(std::string_view, const TenantConfig&) override {
    return Status::OK();
  }
  Result<std::uint64_t> AddBatch(std::string_view,
                                 std::span<const Value> values) override {
    return values.size();
  }
  Result<Value> Query(std::string_view, double phi) override { return phi; }
  Status QueryMulti(std::string_view, std::span<const double> phis,
                    std::vector<Value>* answers) override {
    answers->assign(phis.begin(), phis.end());
    return Status::OK();
  }
  Status Snapshot(std::string_view, std::vector<std::uint8_t>* blob) override {
    blob->clear();
    return Status::OK();
  }
  Status Delete(std::string_view) override { return Status::OK(); }
  Result<StatsReply> Stats(std::string_view) override { return StatsReply{}; }
  Status FetchSummary(std::string_view,
                      std::vector<std::uint8_t>* blob) override {
    blob->clear();
    return Status::OK();
  }
  Status Restore(std::string_view, const TenantConfig&,
                 std::span<const std::uint8_t>) override {
    return Status::OK();
  }
};

/// Drives every typed body decoder over a response frame's payload; at most
/// one can match the echoed request type, the rest must fail cleanly.
void ExerciseResponse(const std::uint8_t* payload, std::size_t len) {
  Result<mrl::server::ResponseView> response =
      mrl::server::DecodeResponse(payload, len);
  if (!response.ok()) return;
  std::vector<Value> values;
  std::vector<std::uint8_t> blob;
  (void)mrl::server::DecodeAddBatchOk(response.value());
  (void)mrl::server::DecodeQueryOk(response.value());
  (void)mrl::server::DecodeQueryMultiOk(response.value(), &values);
  (void)mrl::server::DecodeSnapshotOk(response.value(), &blob);
  (void)mrl::server::DecodeStatsOk(response.value());
  (void)mrl::server::DecodeFetchSummaryOk(response.value(), &blob);
}

/// Serves `frame` and traps unless the reply is exactly one decodable
/// response frame echoing `echo` (the frame's own type when it decodes)
/// or kResponse (a frame attributable to no request).
void ServeAndCheck(std::span<const std::uint8_t> frame, MsgType echo) {
  static StubHandler handler;
  std::vector<std::uint8_t> out;
  mrl::server::ServeRequest(frame, handler, &out);
  Result<mrl::server::FrameView> reply =
      mrl::server::DecodeFrame(out.data(), out.size());
  if (!reply.ok() || reply.value().frame_size != out.size() ||
      reply.value().type != MsgType::kResponse) {
    __builtin_trap();
  }
  Result<mrl::server::ResponseView> response = mrl::server::DecodeResponse(
      reply.value().payload, reply.value().payload_len);
  if (!response.ok() || (response.value().request_type != echo &&
                         response.value().request_type != MsgType::kResponse)) {
    __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // Stream framing loop: consume frames front to back until the buffer is
  // exhausted, a frame is malformed (InvalidArgument — a server would drop
  // or answer), or the remainder is an incomplete frame (OutOfRange — a
  // server would wait for more bytes).
  std::size_t offset = 0;
  while (offset < size) {
    Result<mrl::server::FrameView> frame =
        mrl::server::DecodeFrame(data + offset, size - offset);
    if (!frame.ok()) break;
    const mrl::server::FrameView& view = frame.value();
    if (view.type == MsgType::kResponse) {
      ExerciseResponse(view.payload, view.payload_len);
    }
    ServeAndCheck(std::span<const std::uint8_t>(data + offset, view.frame_size),
                  view.type);
    offset += view.frame_size;
  }
  // A server reads only the body behind a length prefix it already
  // accepted: serving the raw input must be equally safe, whatever its
  // prefix says.
  if (size >= 4) {
    Result<mrl::server::FrameView> body =
        mrl::server::DecodeFrameBody(data + 4, size - 4);
    ServeAndCheck(std::span<const std::uint8_t>(data, size),
                  body.ok() ? body.value().type : MsgType::kResponse);
  }
  return 0;
}
