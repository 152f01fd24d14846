#ifndef MRLQUANT_SERVER_PROTOCOL_H_
#define MRLQUANT_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/serde.h"
#include "util/status.h"
#include "util/types.h"

namespace mrl {
namespace server {

/// The mrlquantd wire protocol (docs/wire_protocol.md): length-prefixed
/// binary frames over a byte stream (a Unix-domain socket).
///
/// Frame layout, all integers little-endian:
///
///   | u32 body_len | u8 version | u8 type | u16 reserved | u32 crc | payload |
///
/// `body_len` counts everything after itself (8 header bytes + payload);
/// `crc` is CRC-32 (IEEE, reflected 0xEDB88320) over the payload only. The
/// decoder is strict: unknown version, unknown type, nonzero reserved bits,
/// oversized length, or a CRC mismatch reject the frame with a Status —
/// never a crash — which is what makes it safe to fuzz and to expose to
/// untrusted peers (fuzz/fuzz_protocol_decode.cc).
/// Version history: 1 = initial protocol (kinds unknown-n, sharded);
/// 2 = pluggable backends (CREATE_SKETCH/STATS gained the kll and
/// det_reservoir kinds); 3 = distributed tier (PING health probe,
/// FETCH_SUMMARY partial-summary export, RESTORE tenant install — the
/// router/backend ops); 4 = kind 1 (sharded) retired, and the tenant
/// config block lost its num_shards field. Kinds 2 and 3 were later
/// retired within v4: their bytes are rejected, and frames of kind 0 are
/// unchanged. Frames carrying any other version are rejected.
inline constexpr std::uint8_t kProtocolVersion = 4;

/// Bytes before the payload: length prefix + version + type + reserved + crc.
inline constexpr std::size_t kFrameHeaderSize = 12;

/// Hard cap on the payload of a single frame (16 MiB) — bounds what a
/// decoder will ever ask a transport buffer to hold.
inline constexpr std::size_t kMaxPayload = std::size_t{1} << 24;

/// Tenant names are path-safe identifiers: 1..128 chars from
/// [A-Za-z0-9_.-], not starting with '.' (they appear in checkpoint files
/// and logs).
inline constexpr std::size_t kMaxTenantNameLen = 128;

enum class MsgType : std::uint8_t {
  kCreateSketch = 1,
  kAddBatch = 2,
  kQuery = 3,
  kQueryMulti = 4,
  kSnapshot = 5,
  kDelete = 6,
  kStats = 7,
  kResponse = 8,
  kPing = 9,          ///< health probe, empty payload (protocol v3)
  kFetchSummary = 10, ///< Section 6 partial-summary export (protocol v3)
  kRestore = 11,      ///< install a tenant from a checkpoint (protocol v3)
};

/// True for the request/response types above.
bool IsKnownMsgType(std::uint8_t type);

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `data`.
std::uint32_t Crc32(const std::uint8_t* data, std::size_t n);

bool IsValidTenantName(std::string_view name);

/// Tenant configuration carried by CREATE_SKETCH and RESTORE and persisted
/// in registry checkpoints. Every tenant is an UnknownNSketch.
struct TenantConfig {
  double eps = 0.01;
  double delta = 1e-4;
  std::uint64_t seed = 1;
};

inline bool operator==(const TenantConfig& a, const TenantConfig& b) {
  return a.eps == b.eps && a.delta == b.delta && a.seed == b.seed;
}

/// The one TenantConfig codec, shared by CREATE_SKETCH, RESTORE and the
/// registry checkpoint's tenant records. Layout:
///
///   | u8 kind | double eps | double delta | u64 seed |
///
/// The kind byte is a format constant: 0 (unknown-N) is the only legal
/// value. Bytes 1 (sharded), 2 (KLL) and 3 (deterministic reservoir) named
/// retired tenant kinds and are never reused. PutTenantConfig writes 0.
void PutTenantConfig(const TenantConfig& config, BinaryWriter* writer);

/// Reads the block above and validates it (ValidateTenantConfig). Any kind
/// byte but 0 is InvalidArgument("unknown sketch kind N").
Status GetTenantConfig(BinaryReader* reader, TenantConfig* config);

/// The range checks every config passes before a sketch is built: eps in
/// (0, 0.5], delta in (0, 1). InvalidArgument otherwise.
Status ValidateTenantConfig(const TenantConfig& config);

// ---------------------------------------------------------------------------
// Frame scaffolding

/// A parsed frame header plus a view of its payload (borrowed from the
/// caller's buffer; valid only while that buffer lives).
struct FrameView {
  MsgType type = MsgType::kResponse;
  const std::uint8_t* payload = nullptr;
  std::size_t payload_len = 0;
  std::size_t frame_size = 0;  ///< total bytes consumed, incl. length prefix
};

/// Parses and CRC-checks one complete frame at the front of [data, size).
/// Fails with InvalidArgument on any malformed header and with OutOfRange
/// when the buffer does not yet hold the whole frame (a stream transport
/// should read more and retry).
Result<FrameView> DecodeFrame(const std::uint8_t* data, std::size_t size);

/// As DecodeFrame for a frame whose 4-byte length prefix was already
/// consumed by the transport: `body` must hold exactly the `body_len` bytes
/// the prefix announced.
Result<FrameView> DecodeFrameBody(const std::uint8_t* body, std::size_t len);

/// The one frame-length rule, shared by every framing loop (DecodeFrame,
/// the daemon's shards, the client, the router): reads the little-endian
/// length prefix at `prefix` into *body_len and returns whether it can
/// frame a message — at least the 8 header bytes it counts, at most
/// kMaxPayload of payload. A stream whose prefix fails it cannot be
/// resynchronized.
bool ReadFrameBodyLen(const std::uint8_t* prefix, std::uint32_t* body_len);

/// Incremental frame writer: appends the header to *out, lets the caller
/// append payload fields through the BinaryWriter interface, and
/// backpatches length + CRC in Finish(). Appends only — steady-state
/// encoding into a warmed buffer allocates nothing.
class FrameBuilder : public BinaryWriter {
 public:
  FrameBuilder(MsgType type, std::vector<std::uint8_t>* out);

  /// A tenant name as a string16; CHECKs its length against
  /// kMaxTenantNameLen.
  void PutName(std::string_view name);

  /// Backpatches the length prefix and payload CRC. Must be called exactly
  /// once; the payload must not exceed kMaxPayload.
  void Finish();

 private:
  std::size_t frame_start_;
};

// ---------------------------------------------------------------------------
// Requests
//
// Bulk numeric payloads (ADD_BATCH values, QUERY_MULTI ranks) stay in wire
// form inside the request view — a pointer into the frame buffer — so the
// hot ingestion path decodes them straight into a reusable scratch vector
// (DecodeDoublesInto) with no intermediate allocation.

struct CreateSketchRequest {
  std::string_view name;
  TenantConfig config;
};

struct AddBatchRequest {
  std::string_view name;
  const std::uint8_t* values_le = nullptr;  ///< count little-endian doubles
  std::uint64_t count = 0;
};

struct QueryRequest {
  std::string_view name;
  double phi = 0;
};

struct QueryMultiRequest {
  std::string_view name;
  const std::uint8_t* phis_le = nullptr;
  std::uint64_t count = 0;
};

/// SNAPSHOT / DELETE / STATS / FETCH_SUMMARY carry only a name (empty
/// allowed for STATS: global statistics).
struct NameRequest {
  std::string_view name;
};

/// RESTORE: create-or-replace a tenant from a checkpoint blob — the
/// router's replica-resync and checkpoint-shipping op. The blob stays in
/// wire form inside the view (a pointer into the frame buffer).
struct RestoreRequest {
  std::string_view name;
  TenantConfig config;
  const std::uint8_t* blob = nullptr;
  std::size_t blob_len = 0;
};

void EncodeCreateSketch(std::string_view name, const TenantConfig& config,
                        std::vector<std::uint8_t>* out);
void EncodeAddBatch(std::string_view name, std::span<const Value> values,
                    std::vector<std::uint8_t>* out);
void EncodeQuery(std::string_view name, double phi,
                 std::vector<std::uint8_t>* out);
void EncodeQueryMulti(std::string_view name, std::span<const double> phis,
                      std::vector<std::uint8_t>* out);
void EncodeNameRequest(MsgType type, std::string_view name,
                       std::vector<std::uint8_t>* out);
/// PING: empty payload.
void EncodePing(std::vector<std::uint8_t>* out);
void EncodeRestore(std::string_view name, const TenantConfig& config,
                   std::span<const std::uint8_t> blob,
                   std::vector<std::uint8_t>* out);

Result<CreateSketchRequest> DecodeCreateSketch(const std::uint8_t* payload,
                                               std::size_t len);
Result<AddBatchRequest> DecodeAddBatch(const std::uint8_t* payload,
                                       std::size_t len);
Result<QueryRequest> DecodeQuery(const std::uint8_t* payload,
                                 std::size_t len);
Result<QueryMultiRequest> DecodeQueryMulti(const std::uint8_t* payload,
                                           std::size_t len);
Result<NameRequest> DecodeNameRequest(MsgType type,
                                      const std::uint8_t* payload,
                                      std::size_t len);
/// PING carries no payload; rejects any trailing bytes.
Status DecodePing(const std::uint8_t* payload, std::size_t len);
Result<RestoreRequest> DecodeRestore(const std::uint8_t* payload,
                                     std::size_t len);

/// Peeks the tenant name at the front of a request payload without fully
/// decoding it — every request payload begins with a u16-length-prefixed
/// name. The router uses this to pick a frame's backend before forwarding
/// it unparsed. Returns an empty view when the
/// payload is too short or the length runs past it (the real decoder will
/// produce the error); does not validate name characters.
std::string_view FrameTenantName(const std::uint8_t* payload,
                                 std::size_t len);

/// Stable hash of a tenant name (FNV-1a, 64-bit): the router's placement
/// hash (router/hash_ring.h).
std::uint64_t TenantNameHash(std::string_view name);

/// Copies `count` little-endian doubles into *out (capacity reused).
/// `reject_nan` refuses NaN bit patterns with InvalidArgument — ADD_BATCH
/// and QUERY_MULTI both use it, keeping the sketches' NaN CHECK-abort
/// unreachable from the network.
Status DecodeDoublesInto(const std::uint8_t* le, std::uint64_t count,
                         bool reject_nan, std::vector<double>* out);

// ---------------------------------------------------------------------------
// Responses
//
// Every request is answered by one kResponse frame:
//
//   | u8 request_type | u8 status_code | u16 msg_len | msg | body |
//
// status_code is mrl::StatusCode (0 = OK). On error `msg` holds the
// human-readable message and `body` is empty; on OK `msg` is empty and
// `body` is the request-type-specific reply below.

/// STATS body: | u64 num_tenants | u64 total_count | u8 present |
/// u8 kind | u64 tenant_count | u64 tenant_memory_elements |. The kind byte
/// is the config block's format constant: always written 0, and any other
/// value is rejected on decode.
struct StatsReply {
  std::uint64_t num_tenants = 0;  ///< registry-wide
  std::uint64_t total_count = 0;  ///< registry-wide ingested elements
  bool tenant_present = false;    ///< remaining fields valid iff true
  std::uint64_t tenant_count = 0;
  std::uint64_t tenant_memory_elements = 0;
};

/// Parsed response header plus borrowed views of message and body.
struct ResponseView {
  MsgType request_type = MsgType::kResponse;
  StatusCode code = StatusCode::kOk;
  std::string_view message;
  const std::uint8_t* body = nullptr;
  std::size_t body_len = 0;

  bool ok() const { return code == StatusCode::kOk; }
  /// Materializes the wire error as a Status (OK when ok()).
  Status ToStatus() const;
};

void EncodeErrorResponse(MsgType request_type, const Status& status,
                         std::vector<std::uint8_t>* out);
/// OK response with an empty body (CREATE_SKETCH, DELETE).
void EncodeEmptyOk(MsgType request_type, std::vector<std::uint8_t>* out);
/// ADD_BATCH: u64 tenant element count after the batch.
void EncodeAddBatchOk(std::uint64_t new_count, std::vector<std::uint8_t>* out);
/// QUERY: one double.
void EncodeQueryOk(double value, std::vector<std::uint8_t>* out);
/// QUERY_MULTI: a value array (u64 count + doubles).
void EncodeQueryMultiOk(std::span<const Value> values,
                        std::vector<std::uint8_t>* out);
/// SNAPSHOT or FETCH_SUMMARY: one blob (u32 length + bytes) holding the
/// tenant checkpoint or the serialized partial summary (core/partial.h).
void EncodeBlobOk(MsgType request_type, std::span<const std::uint8_t> blob,
                  std::vector<std::uint8_t>* out);
void EncodeStatsOk(const StatsReply& stats, std::vector<std::uint8_t>* out);

Result<ResponseView> DecodeResponse(const std::uint8_t* payload,
                                    std::size_t len);
Result<std::uint64_t> DecodeAddBatchOk(const ResponseView& response);
Result<double> DecodeQueryOk(const ResponseView& response);
Status DecodeQueryMultiOk(const ResponseView& response,
                          std::vector<Value>* out);
/// The SNAPSHOT or FETCH_SUMMARY reply (`expect`): exactly one blob.
Status DecodeBlobOk(const ResponseView& response, MsgType expect,
                    std::vector<std::uint8_t>* out);
Result<StatsReply> DecodeStatsOk(const ResponseView& response);

// ---------------------------------------------------------------------------
// Serving

/// What a server does with each decoded, validated request: one method per
/// request type. FrameHandler (server/frame_server.h) sees raw frame bytes,
/// which the router needs for verbatim forwarding; RequestHandler sees
/// decoded requests, and ServeRequest is the one bridge between them. A
/// method's error becomes the error reply; `blob` and `answers` are
/// reusable scratch that the method overwrites.
class RequestHandler {
 public:
  virtual Status CreateSketch(std::string_view name,
                              const TenantConfig& config) = 0;
  virtual Result<std::uint64_t> AddBatch(std::string_view name,
                                         std::span<const Value> values) = 0;
  virtual Result<Value> Query(std::string_view name, double phi) = 0;
  virtual Status QueryMulti(std::string_view name,
                            std::span<const double> phis,
                            std::vector<Value>* answers) = 0;
  virtual Status Snapshot(std::string_view name,
                          std::vector<std::uint8_t>* blob) = 0;
  virtual Status Delete(std::string_view name) = 0;
  /// `name` may be empty: registry-wide statistics only.
  virtual Result<StatsReply> Stats(std::string_view name) = 0;
  virtual Status FetchSummary(std::string_view name,
                              std::vector<std::uint8_t>* blob) = 0;
  virtual Status Restore(std::string_view name, const TenantConfig& config,
                         std::span<const std::uint8_t> blob) = 0;

 protected:
  ~RequestHandler() = default;
};

/// Turns one whole request frame (length prefix included, at least 4
/// bytes; the prefix itself is not read) into exactly one response frame
/// appended to *out: frame check, per-type decode and validation, one
/// handler call, then the OK or error reply. A frame that fails
/// DecodeFrameBody, or a response frame, is answered with an error that
/// echoes kResponse; any other error echoes the request type. PING is
/// answered here, without a handler call. ADD_BATCH values and QUERY_MULTI
/// phis refuse NaN. A SNAPSHOT or FETCH_SUMMARY blob too large for one
/// frame is answered ResourceExhausted. Decoding reuses per-thread
/// scratch, so steady-state serving allocates nothing here.
void ServeRequest(std::span<const std::uint8_t> frame,
                  RequestHandler& handler, std::vector<std::uint8_t>* out);

}  // namespace server
}  // namespace mrl

#endif  // MRLQUANT_SERVER_PROTOCOL_H_
