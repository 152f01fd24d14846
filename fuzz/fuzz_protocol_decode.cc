// Fuzz harness for the mrlquantd wire-protocol decoder
// (src/server/protocol.h).
//
// A frame is untrusted input: anything that can open the daemon's socket
// can send arbitrary bytes. The contract under test is that the decoder
// NEVER aborts or reads out of bounds — it either yields a validated
// request/response view or a Status. The harness walks the input as a
// stream (the server's framing loop), then drives every request decoder
// and the response decoders over each structurally valid frame, exactly as
// the server and client library would. The daemon's request decoders also
// validate every frame a router forwards, so they are the whole wall in
// front of both tiers.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "server/protocol.h"
#include "util/status.h"

namespace {

void ExerciseFrame(const mrl::server::FrameView& frame) {
  using mrl::server::MsgType;
  const std::uint8_t* payload = frame.payload;
  const std::size_t len = frame.payload_len;
  std::vector<double> doubles;
  switch (frame.type) {
    case MsgType::kCreateSketch:
      (void)mrl::server::DecodeCreateSketch(payload, len);
      break;
    case MsgType::kAddBatch: {
      mrl::Result<mrl::server::AddBatchRequest> req =
          mrl::server::DecodeAddBatch(payload, len);
      if (req.ok()) {
        (void)mrl::server::DecodeDoublesInto(req.value().values_le,
                                             req.value().count,
                                             /*reject_nan=*/true, &doubles);
      }
      break;
    }
    case MsgType::kQuery:
      (void)mrl::server::DecodeQuery(payload, len);
      break;
    case MsgType::kQueryMulti: {
      mrl::Result<mrl::server::QueryMultiRequest> req =
          mrl::server::DecodeQueryMulti(payload, len);
      if (req.ok()) {
        (void)mrl::server::DecodeDoublesInto(req.value().phis_le,
                                             req.value().count,
                                             /*reject_nan=*/true, &doubles);
      }
      break;
    }
    case MsgType::kSnapshot:
    case MsgType::kDelete:
    case MsgType::kStats:
    case MsgType::kFetchSummary:
      (void)mrl::server::DecodeNameRequest(frame.type, payload, len);
      break;
    case MsgType::kPing:
      (void)mrl::server::DecodePing(payload, len);
      break;
    case MsgType::kRestore:
      (void)mrl::server::DecodeRestore(payload, len);
      break;
    case MsgType::kResponse: {
      mrl::Result<mrl::server::ResponseView> response =
          mrl::server::DecodeResponse(payload, len);
      if (response.ok()) {
        // Drive every typed body decoder; at most one can match the echoed
        // request type, the rest must fail cleanly.
        std::vector<mrl::Value> values;
        std::vector<std::uint8_t> blob;
        (void)mrl::server::DecodeAddBatchOk(response.value());
        (void)mrl::server::DecodeQueryOk(response.value());
        (void)mrl::server::DecodeQueryMultiOk(response.value(), &values);
        (void)mrl::server::DecodeSnapshotOk(response.value(), &blob);
        (void)mrl::server::DecodeStatsOk(response.value());
        (void)mrl::server::DecodeFetchSummaryOk(response.value(), &blob);
      }
      break;
    }
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
    mrl::Result<mrl::server::FrameView> frame =
        mrl::server::DecodeFrame(data + offset, size - offset);
    if (!frame.ok()) break;
    ExerciseFrame(frame.value());
    offset += frame.value().frame_size;
  }
  // The body-only entry point (transport already consumed the length
  // prefix) must be equally safe on the raw input.
  if (size >= 4) {
    mrl::Result<mrl::server::FrameView> body =
        mrl::server::DecodeFrameBody(data + 4, size - 4);
    if (body.ok()) ExerciseFrame(body.value());
  }
  return 0;
}
