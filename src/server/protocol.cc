#include "server/protocol.h"

#include <array>
#include <cmath>
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

/// Reads a u16-length-prefixed name and validates it. The view borrows from
/// the payload buffer underlying `reader`.
bool GetName(BinaryReader* reader, bool allow_empty, std::string_view* out) {
  std::uint16_t n;
  const std::uint8_t* bytes;
  if (!reader->GetU16(&n) || !reader->GetBytes(n, &bytes)) return false;
  *out = std::string_view(reinterpret_cast<const char*>(bytes), n);
  if (out->empty() ? !allow_empty : !IsValidTenantName(*out)) {
    reader->Fail("invalid tenant name");
    return false;
  }
  return true;
}

Status RequireAtEnd(const BinaryReader& reader) {
  if (!reader.status().ok()) return reader.status();
  if (reader.Remaining() != 0) {
    return Status::InvalidArgument("trailing bytes after request payload");
  }
  return Status::OK();
}

}  // namespace

bool IsKnownMsgType(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(MsgType::kCreateSketch) &&
         type <= static_cast<std::uint8_t>(MsgType::kRestore);
}

bool IsKnownSketchKind(std::uint8_t kind) {
  return kind == static_cast<std::uint8_t>(SketchKind::kUnknownN) ||
         kind == static_cast<std::uint8_t>(SketchKind::kKll) ||
         kind == static_cast<std::uint8_t>(SketchKind::kDetReservoir);
}

std::string_view SketchKindName(SketchKind kind) {
  switch (kind) {
    case SketchKind::kUnknownN:
      return "unknown_n";
    case SketchKind::kKll:
      return "kll";
    case SketchKind::kDetReservoir:
      return "det_reservoir";
  }
  return "invalid";
}

void PutTenantConfig(const TenantConfig& config, BinaryWriter* writer) {
  writer->PutU8(static_cast<std::uint8_t>(config.kind));
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
  config->kind = static_cast<SketchKind>(kind);
  return ValidateTenantConfig(*config);
}

Status ValidateTenantConfig(const TenantConfig& config) {
  const auto kind = static_cast<std::uint8_t>(config.kind);
  if (!IsKnownSketchKind(kind)) {
    return Status::InvalidArgument("unknown sketch kind " +
                                   std::to_string(kind));
  }
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
  PutU16(static_cast<std::uint16_t>(name.size()));
  PutBytes(reinterpret_cast<const std::uint8_t*>(name.data()), name.size());
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
  frame.PutU64(values.size());
  for (Value v : values) frame.PutDouble(v);
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
  frame.PutU64(phis.size());
  for (double phi : phis) frame.PutDouble(phi);
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
  frame.PutU32(static_cast<std::uint32_t>(blob.size()));
  frame.PutBytes(blob.data(), blob.size());
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
      !reader.GetU64(&req.count)) {
    return reader.status();
  }
  if (req.count != reader.Remaining() / sizeof(double) ||
      req.count * sizeof(double) != reader.Remaining()) {
    return Status::InvalidArgument(
        "ADD_BATCH count disagrees with payload size");
  }
  req.values_le = payload + (len - reader.Remaining());
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
      !reader.GetU64(&req.count)) {
    return reader.status();
  }
  if (req.count != reader.Remaining() / sizeof(double) ||
      req.count * sizeof(double) != reader.Remaining()) {
    return Status::InvalidArgument(
        "QUERY_MULTI count disagrees with payload size");
  }
  req.phis_le = payload + (len - reader.Remaining());
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
  std::uint32_t blob_len;
  if (!reader.GetU32(&blob_len)) return reader.status();
  if (blob_len != reader.Remaining()) {
    return Status::InvalidArgument(
        "RESTORE blob length disagrees with payload size");
  }
  if (!reader.GetBytes(blob_len, &req.blob)) return reader.status();
  req.blob_len = blob_len;
  return req;
}

std::string_view FrameTenantName(const std::uint8_t* payload,
                                 std::size_t len) {
  if (payload == nullptr || len < 2) return {};
  const std::uint16_t n = LoadU16Le(payload);
  if (static_cast<std::size_t>(n) + 2 > len) return {};
  return std::string_view(reinterpret_cast<const char*>(payload) + 2, n);
}

std::uint64_t TenantNameHash(std::string_view name) {
  // Stable across platforms and standard-library versions, so tenant →
  // shard/partition routing never changes under recompilation (the
  // checkpoint format does not depend on it either way).
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : name) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

Status DecodeDoublesInto(const std::uint8_t* le, std::uint64_t count,
                         bool reject_nan, std::vector<double>* out) {
  out->clear();
  out->resize(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const double v = LoadDoubleLe(le + i * sizeof(double));
    if (reject_nan && std::isnan(v)) {
      out->clear();
      return Status::InvalidArgument("NaN rejected at the protocol boundary");
    }
    (*out)[static_cast<std::size_t>(i)] = v;
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
    const std::string& msg = status.message();
    const std::size_t n = msg.size() > 0xFFFF ? 0xFFFF : msg.size();
    PutU16(static_cast<std::uint16_t>(n));
    PutBytes(reinterpret_cast<const std::uint8_t*>(msg.data()), n);
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
  frame.PutU64(values.size());
  for (Value v : values) frame.PutDouble(v);
  frame.Finish();
}

void EncodeSnapshotOk(std::span<const std::uint8_t> blob,
                      std::vector<std::uint8_t>* out) {
  ResponseBuilder frame(MsgType::kSnapshot, Status::OK(), out);
  frame.PutU32(static_cast<std::uint32_t>(blob.size()));
  frame.PutBytes(blob.data(), blob.size());
  frame.Finish();
}

void EncodeFetchSummaryOk(std::span<const std::uint8_t> blob,
                          std::vector<std::uint8_t>* out) {
  ResponseBuilder frame(MsgType::kFetchSummary, Status::OK(), out);
  frame.PutU32(static_cast<std::uint32_t>(blob.size()));
  frame.PutBytes(blob.data(), blob.size());
  frame.Finish();
}

void EncodeStatsOk(const StatsReply& stats, std::vector<std::uint8_t>* out) {
  ResponseBuilder frame(MsgType::kStats, Status::OK(), out);
  frame.PutU64(stats.num_tenants);
  frame.PutU64(stats.total_count);
  frame.PutU8(stats.tenant_present ? 1 : 0);
  frame.PutU8(static_cast<std::uint8_t>(stats.tenant_kind));
  frame.PutU64(stats.tenant_count);
  frame.PutU64(stats.tenant_memory_elements);
  frame.Finish();
}

Result<ResponseView> DecodeResponse(const std::uint8_t* payload,
                                    std::size_t len) {
  BinaryReader reader(payload, len);
  std::uint8_t request_type, code;
  std::uint16_t msg_len;
  if (!reader.GetU8(&request_type) || !reader.GetU8(&code) ||
      !reader.GetU16(&msg_len)) {
    return reader.status();
  }
  if (!IsKnownMsgType(request_type) ||
      request_type == static_cast<std::uint8_t>(MsgType::kResponse)) {
    return Status::InvalidArgument("response echoes unknown request type");
  }
  if (code > static_cast<std::uint8_t>(StatusCode::kUnimplemented)) {
    return Status::InvalidArgument("response status code out of range");
  }
  if (msg_len > reader.Remaining()) {
    return Status::InvalidArgument("response message exceeds payload");
  }
  ResponseView view;
  view.request_type = static_cast<MsgType>(request_type);
  view.code = static_cast<StatusCode>(code);
  const std::size_t msg_pos = len - reader.Remaining();
  view.message = std::string_view(
      reinterpret_cast<const char*>(payload) + msg_pos, msg_len);
  view.body = payload + msg_pos + msg_len;
  view.body_len = len - msg_pos - msg_len;
  if (view.code == StatusCode::kOk && msg_len != 0) {
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

/// SNAPSHOT / FETCH_SUMMARY bodies: u32 length + exactly that many bytes.
Status DecodeBlobOk(const ResponseView& response, MsgType expect,
                    std::vector<std::uint8_t>* out) {
  MRL_RETURN_IF_ERROR(RequireOkBody(response, expect));
  BinaryReader reader(response.body, response.body_len);
  std::uint32_t blob_len;
  const std::uint8_t* blob;
  if (!reader.GetU32(&blob_len)) return reader.status();
  if (blob_len != reader.Remaining()) {
    return Status::InvalidArgument(
        "reply blob length disagrees with payload size");
  }
  if (!reader.GetBytes(blob_len, &blob)) return reader.status();
  out->assign(blob, blob + blob_len);
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
  std::uint64_t count;
  if (!reader.GetU64(&count)) return reader.status();
  if (count != reader.Remaining() / sizeof(double) ||
      count * sizeof(double) != reader.Remaining()) {
    return Status::InvalidArgument(
        "QUERY_MULTI reply count disagrees with payload size");
  }
  return DecodeDoublesInto(response.body + (response.body_len -
                                            reader.Remaining()),
                           count, /*reject_nan=*/false, out);
}

Status DecodeSnapshotOk(const ResponseView& response,
                        std::vector<std::uint8_t>* out) {
  return DecodeBlobOk(response, MsgType::kSnapshot, out);
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
  if (present > 1 || !IsKnownSketchKind(kind)) {
    return Status::InvalidArgument("STATS reply fields out of range");
  }
  stats.tenant_present = present != 0;
  stats.tenant_kind = static_cast<SketchKind>(kind);
  return stats;
}

Status DecodeFetchSummaryOk(const ResponseView& response,
                            std::vector<std::uint8_t>* out) {
  return DecodeBlobOk(response, MsgType::kFetchSummary, out);
}

}  // namespace server
}  // namespace mrl
