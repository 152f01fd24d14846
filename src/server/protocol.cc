#include "server/protocol.h"

#include <array>
#include <cmath>
#include <cstring>
#include <string>

#include "util/logging.h"
#include "util/serde.h"

namespace mrl {
namespace server {

namespace {

// Reflected CRC-32 (IEEE 802.3), table-driven, byte at a time. The table is
// built once on first use; lookup allocates nothing.
const std::array<std::uint32_t, 256>& CrcTable() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

/// Body bytes a length prefix may announce (see ReadFrameBodyLen).
bool IsFramableBodyLen(std::size_t body_len) {
  return body_len >= kFrameHeaderSize - 4 &&
         body_len <= kMaxPayload + (kFrameHeaderSize - 4);
}

/// Reads a string16 tenant name and validates it. The view borrows from
/// the payload buffer underlying `reader`.
bool GetName(BinaryReader* reader, bool allow_empty, std::string_view* out) {
  if (!reader->GetString16(out)) return false;
  if (out->empty() ? !allow_empty : !IsValidTenantName(*out)) {
    reader->Fail("invalid tenant name");
    return false;
  }
  return true;
}

Status RequireAtEnd(const BinaryReader& reader) {
  if (!reader.status().ok()) return reader.status();
  if (reader.Remaining() != 0) {
    return Status::InvalidArgument("trailing bytes after payload");
  }
  return Status::OK();
}

/// The config block's and the STATS reply's kind byte: unknown-N, the only
/// served kind.
constexpr std::uint8_t kUnknownNKind = 0;

Status CheckKindByte(std::uint8_t kind) {
  if (kind != kUnknownNKind) {
    return Status::InvalidArgument("unknown sketch kind " +
                                   std::to_string(kind));
  }
  return Status::OK();
}

}  // namespace

bool IsKnownMsgType(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(MsgType::kCreateSketch) &&
         type <= static_cast<std::uint8_t>(MsgType::kRestore);
}

void PutTenantConfig(const TenantConfig& config, BinaryWriter* writer) {
  writer->PutU8(kUnknownNKind);
  writer->PutDouble(config.eps);
  writer->PutDouble(config.delta);
  writer->PutU64(config.seed);
}

Status GetTenantConfig(BinaryReader* reader, TenantConfig* config) {
  std::uint8_t kind;
  if (!reader->GetU8(&kind) || !reader->GetDouble(&config->eps) ||
      !reader->GetDouble(&config->delta) || !reader->GetU64(&config->seed)) {
    return reader->status();
  }
  MRL_RETURN_IF_ERROR(CheckKindByte(kind));
  return ValidateTenantConfig(*config);
}

Status ValidateTenantConfig(const TenantConfig& config) {
  if (!std::isfinite(config.eps) || config.eps <= 0 || config.eps > 0.5) {
    return Status::InvalidArgument("eps must be in (0, 0.5]");
  }
  if (!std::isfinite(config.delta) || config.delta <= 0 ||
      config.delta >= 1) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  return Status::OK();
}

std::uint32_t Crc32(const std::uint8_t* data, std::size_t n) {
  const std::array<std::uint32_t, 256>& table = CrcTable();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

bool IsValidTenantName(std::string_view name) {
  if (name.empty() || name.size() > kMaxTenantNameLen) return false;
  if (name.front() == '.') return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Frame scaffolding

Result<FrameView> DecodeFrame(const std::uint8_t* data, std::size_t size) {
  if (size < 4) {
    return Status::OutOfRange("incomplete frame: length prefix missing");
  }
  std::uint32_t body_len = 0;
  if (!ReadFrameBodyLen(data, &body_len)) {
    return Status::InvalidArgument("frame length out of bounds");
  }
  if (size < 4 + static_cast<std::size_t>(body_len)) {
    return Status::OutOfRange("incomplete frame: body not yet buffered");
  }
  Result<FrameView> body = DecodeFrameBody(data + 4, body_len);
  if (!body.ok()) return body.status();
  FrameView view = body.value();
  view.frame_size = 4 + static_cast<std::size_t>(body_len);
  return view;
}

bool ReadFrameBodyLen(const std::uint8_t* prefix, std::uint32_t* body_len) {
  *body_len = LoadU32Le(prefix);
  return IsFramableBodyLen(*body_len);
}

Result<FrameView> DecodeFrameBody(const std::uint8_t* body, std::size_t len) {
  if (!IsFramableBodyLen(len)) {
    return Status::InvalidArgument("frame body length out of bounds");
  }
  const std::uint8_t version = body[0];
  const std::uint8_t type = body[1];
  const std::uint16_t reserved = LoadU16Le(body + 2);
  const std::uint32_t crc = LoadU32Le(body + 4);
  if (version != kProtocolVersion) {
    return Status::InvalidArgument("unsupported protocol version");
  }
  if (!IsKnownMsgType(type)) {
    return Status::InvalidArgument("unknown frame type");
  }
  if (reserved != 0) {
    return Status::InvalidArgument("reserved frame bits set");
  }
  FrameView view;
  view.type = static_cast<MsgType>(type);
  view.payload = body + (kFrameHeaderSize - 4);
  view.payload_len = len - (kFrameHeaderSize - 4);
  view.frame_size = 4 + len;
  if (Crc32(view.payload, view.payload_len) != crc) {
    return Status::InvalidArgument("frame payload CRC mismatch");
  }
  return view;
}

FrameBuilder::FrameBuilder(MsgType type, std::vector<std::uint8_t>* out)
    : BinaryWriter(out), frame_start_(out->size()) {
  PutU32(0);  // length, backpatched by Finish
  PutU8(kProtocolVersion);
  PutU8(static_cast<std::uint8_t>(type));
  PutU16(0);  // reserved
  PutU32(0);  // crc, backpatched by Finish
}

void FrameBuilder::PutName(std::string_view name) {
  MRL_CHECK_LE(name.size(), kMaxTenantNameLen);
  PutString16(name);
}

void FrameBuilder::Finish() {
  std::vector<std::uint8_t>& out = buffer();
  const std::size_t payload_len = out.size() - frame_start_ - kFrameHeaderSize;
  MRL_CHECK_LE(payload_len, kMaxPayload) << "frame payload exceeds cap";
  std::uint8_t* frame = out.data() + frame_start_;
  StoreU32Le(frame, static_cast<std::uint32_t>(payload_len +
                                               (kFrameHeaderSize - 4)));
  StoreU32Le(frame + 8,
             Crc32(frame + kFrameHeaderSize, payload_len));
}

// ---------------------------------------------------------------------------
// Request encoders

void EncodeCreateSketch(std::string_view name, const TenantConfig& config,
                        std::vector<std::uint8_t>* out) {
  FrameBuilder frame(MsgType::kCreateSketch, out);
  frame.PutName(name);
  PutTenantConfig(config, &frame);
  frame.Finish();
}

void EncodeAddBatch(std::string_view name, std::span<const Value> values,
                    std::vector<std::uint8_t>* out) {
  FrameBuilder frame(MsgType::kAddBatch, out);
  frame.PutName(name);
  frame.PutValues(values);
  frame.Finish();
}

void EncodeQuery(std::string_view name, double phi,
                 std::vector<std::uint8_t>* out) {
  FrameBuilder frame(MsgType::kQuery, out);
  frame.PutName(name);
  frame.PutDouble(phi);
  frame.Finish();
}

void EncodeQueryMulti(std::string_view name, std::span<const double> phis,
                      std::vector<std::uint8_t>* out) {
  FrameBuilder frame(MsgType::kQueryMulti, out);
  frame.PutName(name);
  frame.PutValues(phis);
  frame.Finish();
}

void EncodeNameRequest(MsgType type, std::string_view name,
                       std::vector<std::uint8_t>* out) {
  MRL_CHECK(type == MsgType::kSnapshot || type == MsgType::kDelete ||
            type == MsgType::kStats || type == MsgType::kFetchSummary);
  FrameBuilder frame(type, out);
  frame.PutName(name);
  frame.Finish();
}

void EncodePing(std::vector<std::uint8_t>* out) {
  FrameBuilder frame(MsgType::kPing, out);
  frame.Finish();
}

void EncodeRestore(std::string_view name, const TenantConfig& config,
                   std::span<const std::uint8_t> blob,
                   std::vector<std::uint8_t>* out) {
  FrameBuilder frame(MsgType::kRestore, out);
  frame.PutName(name);
  PutTenantConfig(config, &frame);
  frame.PutBlob(blob);
  frame.Finish();
}

// ---------------------------------------------------------------------------
// Request decoders

Result<CreateSketchRequest> DecodeCreateSketch(const std::uint8_t* payload,
                                               std::size_t len) {
  BinaryReader reader(payload, len);
  CreateSketchRequest req;
  if (!GetName(&reader, /*allow_empty=*/false, &req.name)) {
    return reader.status();
  }
  MRL_RETURN_IF_ERROR(GetTenantConfig(&reader, &req.config));
  MRL_RETURN_IF_ERROR(RequireAtEnd(reader));
  return req;
}

Result<AddBatchRequest> DecodeAddBatch(const std::uint8_t* payload,
                                       std::size_t len) {
  BinaryReader reader(payload, len);
  AddBatchRequest req;
  if (!GetName(&reader, /*allow_empty=*/false, &req.name) ||
      !reader.GetValues(&req.values_le, &req.count)) {
    return reader.status();
  }
  MRL_RETURN_IF_ERROR(RequireAtEnd(reader));
  return req;
}

Result<QueryRequest> DecodeQuery(const std::uint8_t* payload,
                                 std::size_t len) {
  BinaryReader reader(payload, len);
  QueryRequest req;
  if (!GetName(&reader, /*allow_empty=*/false, &req.name) ||
      !reader.GetDouble(&req.phi)) {
    return reader.status();
  }
  MRL_RETURN_IF_ERROR(RequireAtEnd(reader));
  if (!std::isfinite(req.phi) || req.phi <= 0 || req.phi > 1) {
    return Status::InvalidArgument("phi must be in (0, 1]");
  }
  return req;
}

Result<QueryMultiRequest> DecodeQueryMulti(const std::uint8_t* payload,
                                           std::size_t len) {
  BinaryReader reader(payload, len);
  QueryMultiRequest req;
  if (!GetName(&reader, /*allow_empty=*/false, &req.name) ||
      !reader.GetValues(&req.phis_le, &req.count)) {
    return reader.status();
  }
  MRL_RETURN_IF_ERROR(RequireAtEnd(reader));
  return req;
}

Result<NameRequest> DecodeNameRequest(MsgType type,
                                      const std::uint8_t* payload,
                                      std::size_t len) {
  BinaryReader reader(payload, len);
  NameRequest req;
  const bool allow_empty = type == MsgType::kStats;
  if (!GetName(&reader, allow_empty, &req.name)) {
    return reader.status();
  }
  MRL_RETURN_IF_ERROR(RequireAtEnd(reader));
  return req;
}

Status DecodePing(const std::uint8_t* payload, std::size_t len) {
  (void)payload;
  if (len != 0) {
    return Status::InvalidArgument("PING carries no payload");
  }
  return Status::OK();
}

Result<RestoreRequest> DecodeRestore(const std::uint8_t* payload,
                                     std::size_t len) {
  BinaryReader reader(payload, len);
  RestoreRequest req;
  if (!GetName(&reader, /*allow_empty=*/false, &req.name)) {
    return reader.status();
  }
  MRL_RETURN_IF_ERROR(GetTenantConfig(&reader, &req.config));
  std::span<const std::uint8_t> blob;
  if (!reader.GetBlob(&blob)) return reader.status();
  MRL_RETURN_IF_ERROR(RequireAtEnd(reader));
  req.blob = blob.data();
  req.blob_len = blob.size();
  return req;
}

std::string_view FrameTenantName(const std::uint8_t* payload,
                                 std::size_t len) {
  BinaryReader reader(payload, len);
  std::string_view name;
  return reader.GetString16(&name) ? name : std::string_view();
}

std::uint64_t TenantNameHash(std::string_view name) {
  // Stable across platforms and standard-library versions, so tenant
  // placement never changes under recompilation (the checkpoint format
  // does not depend on it either way).
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : name) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

namespace {

/// Whether any of `values` is a NaN. Two-lane vectors (GCC/Clang vector
/// extensions) so the scan compiles to packed unordered compares at
/// baseline x86-64 and any optimization level: a scalar `std::isnan` OR
/// loop is not vectorized there. `x != x` holds exactly for NaN.
bool AnyNan(std::span<const double> values) {
  using Lanes = double __attribute__((vector_size(16)));
  using Mask = decltype(Lanes{} != Lanes{});
  Mask any0{}, any1{};
  std::size_t i = 0;
  for (; i + 4 <= values.size(); i += 4) {
    Lanes a, b;
    std::memcpy(&a, values.data() + i, sizeof(a));
    std::memcpy(&b, values.data() + i + 2, sizeof(b));
    any0 |= a != a;
    any1 |= b != b;
  }
  any0 |= any1;
  bool any = (any0[0] | any0[1]) != 0;
  for (; i < values.size(); ++i) any |= std::isnan(values[i]);
  return any;
}

}  // namespace

Status DecodeDoublesInto(const std::uint8_t* le, std::uint64_t count,
                         bool reject_nan, std::vector<double>* out) {
  out->resize(static_cast<std::size_t>(count));
  if (count != 0) std::memcpy(out->data(), le, count * sizeof(double));
  if (reject_nan) {
    if (AnyNan(*out)) {
      out->clear();
      return Status::InvalidArgument("NaN rejected at the protocol boundary");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Responses

Status ResponseView::ToStatus() const {
  if (code == StatusCode::kOk) return Status::OK();
  return Status(code, std::string(message));
}

namespace {

/// A kResponse frame started with the shared header; the caller appends
/// the body and calls Finish.
class ResponseBuilder : public FrameBuilder {
 public:
  ResponseBuilder(MsgType request_type, const Status& status,
                  std::vector<std::uint8_t>* out)
      : FrameBuilder(MsgType::kResponse, out) {
    PutU8(static_cast<std::uint8_t>(request_type));
    PutU8(static_cast<std::uint8_t>(status.code()));
    PutString16(std::string_view(status.message()).substr(0, 0xFFFF));
  }
};

}  // namespace

void EncodeErrorResponse(MsgType request_type, const Status& status,
                         std::vector<std::uint8_t>* out) {
  MRL_CHECK(!status.ok());
  ResponseBuilder frame(request_type, status, out);
  frame.Finish();
}

void EncodeEmptyOk(MsgType request_type, std::vector<std::uint8_t>* out) {
  ResponseBuilder frame(request_type, Status::OK(), out);
  frame.Finish();
}

void EncodeAddBatchOk(std::uint64_t new_count,
                      std::vector<std::uint8_t>* out) {
  ResponseBuilder frame(MsgType::kAddBatch, Status::OK(), out);
  frame.PutU64(new_count);
  frame.Finish();
}

void EncodeQueryOk(double value, std::vector<std::uint8_t>* out) {
  ResponseBuilder frame(MsgType::kQuery, Status::OK(), out);
  frame.PutDouble(value);
  frame.Finish();
}

void EncodeQueryMultiOk(std::span<const Value> values,
                        std::vector<std::uint8_t>* out) {
  ResponseBuilder frame(MsgType::kQueryMulti, Status::OK(), out);
  frame.PutValues(values);
  frame.Finish();
}

void EncodeBlobOk(MsgType request_type, std::span<const std::uint8_t> blob,
                  std::vector<std::uint8_t>* out) {
  MRL_CHECK(request_type == MsgType::kSnapshot ||
            request_type == MsgType::kFetchSummary);
  ResponseBuilder frame(request_type, Status::OK(), out);
  frame.PutBlob(blob);
  frame.Finish();
}

void EncodeStatsOk(const StatsReply& stats, std::vector<std::uint8_t>* out) {
  ResponseBuilder frame(MsgType::kStats, Status::OK(), out);
  frame.PutU64(stats.num_tenants);
  frame.PutU64(stats.total_count);
  frame.PutU8(stats.tenant_present ? 1 : 0);
  frame.PutU8(kUnknownNKind);
  frame.PutU64(stats.tenant_count);
  frame.PutU64(stats.tenant_memory_elements);
  frame.Finish();
}

Result<ResponseView> DecodeResponse(const std::uint8_t* payload,
                                    std::size_t len) {
  BinaryReader reader(payload, len);
  std::uint8_t request_type, code;
  ResponseView view;
  if (!reader.GetU8(&request_type) || !reader.GetU8(&code) ||
      !reader.GetString16(&view.message)) {
    return reader.status();
  }
  if (code > static_cast<std::uint8_t>(StatusCode::kUnimplemented)) {
    return Status::InvalidArgument("response status code out of range");
  }
  // An error may echo kResponse: the reply to a frame that names no request
  // (bad CRC, unknown type or version, a response sent to a server).
  if (!IsKnownMsgType(request_type) ||
      (request_type == static_cast<std::uint8_t>(MsgType::kResponse) &&
       code == static_cast<std::uint8_t>(StatusCode::kOk))) {
    return Status::InvalidArgument("response echoes unknown request type");
  }
  view.request_type = static_cast<MsgType>(request_type);
  view.code = static_cast<StatusCode>(code);
  view.body_len = reader.Remaining();
  view.body = payload + (len - view.body_len);
  if (view.code == StatusCode::kOk && !view.message.empty()) {
    return Status::InvalidArgument("OK response carries an error message");
  }
  if (view.code != StatusCode::kOk && view.body_len != 0) {
    return Status::InvalidArgument("error response carries a body");
  }
  return view;
}

namespace {

Status RequireOkBody(const ResponseView& response, MsgType expect) {
  if (response.request_type != expect) {
    return Status::InvalidArgument("response for a different request type");
  }
  MRL_RETURN_IF_ERROR(response.ToStatus());
  return Status::OK();
}

}  // namespace

Result<std::uint64_t> DecodeAddBatchOk(const ResponseView& response) {
  MRL_RETURN_IF_ERROR(RequireOkBody(response, MsgType::kAddBatch));
  BinaryReader reader(response.body, response.body_len);
  std::uint64_t count;
  if (!reader.GetU64(&count)) return reader.status();
  MRL_RETURN_IF_ERROR(RequireAtEnd(reader));
  return count;
}

Result<double> DecodeQueryOk(const ResponseView& response) {
  MRL_RETURN_IF_ERROR(RequireOkBody(response, MsgType::kQuery));
  BinaryReader reader(response.body, response.body_len);
  double value;
  if (!reader.GetDouble(&value)) return reader.status();
  MRL_RETURN_IF_ERROR(RequireAtEnd(reader));
  return value;
}

Status DecodeQueryMultiOk(const ResponseView& response,
                          std::vector<Value>* out) {
  MRL_RETURN_IF_ERROR(RequireOkBody(response, MsgType::kQueryMulti));
  BinaryReader reader(response.body, response.body_len);
  if (!reader.GetValues(out)) return reader.status();
  return RequireAtEnd(reader);
}

Status DecodeBlobOk(const ResponseView& response, MsgType expect,
                    std::vector<std::uint8_t>* out) {
  MRL_RETURN_IF_ERROR(RequireOkBody(response, expect));
  BinaryReader reader(response.body, response.body_len);
  std::span<const std::uint8_t> blob;
  if (!reader.GetBlob(&blob)) return reader.status();
  MRL_RETURN_IF_ERROR(RequireAtEnd(reader));
  out->assign(blob.begin(), blob.end());
  return Status::OK();
}

Result<StatsReply> DecodeStatsOk(const ResponseView& response) {
  MRL_RETURN_IF_ERROR(RequireOkBody(response, MsgType::kStats));
  BinaryReader reader(response.body, response.body_len);
  StatsReply stats;
  std::uint8_t present, kind;
  if (!reader.GetU64(&stats.num_tenants) ||
      !reader.GetU64(&stats.total_count) || !reader.GetU8(&present) ||
      !reader.GetU8(&kind) || !reader.GetU64(&stats.tenant_count) ||
      !reader.GetU64(&stats.tenant_memory_elements)) {
    return reader.status();
  }
  MRL_RETURN_IF_ERROR(RequireAtEnd(reader));
  MRL_RETURN_IF_ERROR(CheckKindByte(kind));
  if (present > 1) {
    return Status::InvalidArgument("STATS reply fields out of range");
  }
  stats.tenant_present = present != 0;
  return stats;
}

// ---------------------------------------------------------------------------
// Serving

namespace {

/// The largest blob a SNAPSHOT or FETCH_SUMMARY reply carries: the payload
/// cap less the request type, status code, empty message and blob length.
constexpr std::size_t kMaxBlobReply = kMaxPayload - 8;

/// Decodes `frame`'s request, runs it on `handler` and appends the OK
/// reply; an error is returned for the caller to encode.
Status Serve(const FrameView& frame, RequestHandler& handler,
             std::vector<std::uint8_t>* out) {
  // Per-thread request scratch, reused across every frame a server thread
  // handles.
  thread_local std::vector<double> doubles;
  thread_local std::vector<Value> answers;
  thread_local std::vector<std::uint8_t> blob;

  const std::uint8_t* payload = frame.payload;
  const std::size_t len = frame.payload_len;
  switch (frame.type) {
    case MsgType::kCreateSketch: {
      Result<CreateSketchRequest> req = DecodeCreateSketch(payload, len);
      if (!req.ok()) return req.status();
      MRL_RETURN_IF_ERROR(
          handler.CreateSketch(req.value().name, req.value().config));
      EncodeEmptyOk(frame.type, out);
      return Status::OK();
    }
    case MsgType::kAddBatch: {
      Result<AddBatchRequest> req = DecodeAddBatch(payload, len);
      if (!req.ok()) return req.status();
      MRL_RETURN_IF_ERROR(DecodeDoublesInto(
          req.value().values_le, req.value().count, /*reject_nan=*/true,
          &doubles));
      Result<std::uint64_t> count = handler.AddBatch(req.value().name, doubles);
      if (!count.ok()) return count.status();
      EncodeAddBatchOk(count.value(), out);
      return Status::OK();
    }
    case MsgType::kQuery: {
      Result<QueryRequest> req = DecodeQuery(payload, len);
      if (!req.ok()) return req.status();
      Result<Value> answer = handler.Query(req.value().name, req.value().phi);
      if (!answer.ok()) return answer.status();
      EncodeQueryOk(answer.value(), out);
      return Status::OK();
    }
    case MsgType::kQueryMulti: {
      Result<QueryMultiRequest> req = DecodeQueryMulti(payload, len);
      if (!req.ok()) return req.status();
      MRL_RETURN_IF_ERROR(DecodeDoublesInto(req.value().phis_le,
                                            req.value().count,
                                            /*reject_nan=*/true, &doubles));
      MRL_RETURN_IF_ERROR(
          handler.QueryMulti(req.value().name, doubles, &answers));
      EncodeQueryMultiOk(answers, out);
      return Status::OK();
    }
    case MsgType::kSnapshot:
    case MsgType::kDelete:
    case MsgType::kStats:
    case MsgType::kFetchSummary: {
      Result<NameRequest> req = DecodeNameRequest(frame.type, payload, len);
      if (!req.ok()) return req.status();
      const std::string_view name = req.value().name;
      if (frame.type == MsgType::kDelete) {
        MRL_RETURN_IF_ERROR(handler.Delete(name));
        EncodeEmptyOk(frame.type, out);
      } else if (frame.type == MsgType::kStats) {
        Result<StatsReply> stats = handler.Stats(name);
        if (!stats.ok()) return stats.status();
        EncodeStatsOk(stats.value(), out);
      } else {
        MRL_RETURN_IF_ERROR(frame.type == MsgType::kSnapshot
                                ? handler.Snapshot(name, &blob)
                                : handler.FetchSummary(name, &blob));
        if (blob.size() > kMaxBlobReply) {
          return Status::ResourceExhausted(
              "reply blob of " + std::to_string(blob.size()) +
              " bytes exceeds the frame payload cap");
        }
        EncodeBlobOk(frame.type, blob, out);
      }
      return Status::OK();
    }
    case MsgType::kPing:
      MRL_RETURN_IF_ERROR(DecodePing(payload, len));
      EncodeEmptyOk(frame.type, out);
      return Status::OK();
    case MsgType::kRestore: {
      Result<RestoreRequest> req = DecodeRestore(payload, len);
      if (!req.ok()) return req.status();
      MRL_RETURN_IF_ERROR(handler.Restore(
          req.value().name, req.value().config,
          std::span<const std::uint8_t>(req.value().blob,
                                        req.value().blob_len)));
      EncodeEmptyOk(frame.type, out);
      return Status::OK();
    }
    case MsgType::kResponse:
      break;
  }
  return Status::InvalidArgument("response frame sent to server");
}

}  // namespace

void ServeRequest(std::span<const std::uint8_t> frame,
                  RequestHandler& handler, std::vector<std::uint8_t>* out) {
  const Result<FrameView> decoded =
      DecodeFrameBody(frame.data() + 4, frame.size() - 4);
  if (!decoded.ok()) {
    // Framing is intact (the prefix was sane) but the frame is malformed
    // (bad CRC, unknown type/version): attributable to no request.
    return EncodeErrorResponse(MsgType::kResponse, decoded.status(), out);
  }
  // A response frame's error echoes its own type, kResponse.
  const Status status = Serve(decoded.value(), handler, out);
  if (!status.ok()) EncodeErrorResponse(decoded.value().type, status, out);
}

}  // namespace server
}  // namespace mrl
