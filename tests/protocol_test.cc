// Wire protocol round-trip and strictness tests (src/server/protocol.h).

#include "server/protocol.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "util/serde.h"

namespace mrl {
namespace server {
namespace {

// Decodes a whole encoded request buffer into a FrameView, asserting well-
// formedness on the way.
FrameView MustDecode(const std::vector<std::uint8_t>& wire) {
  Result<FrameView> frame = DecodeFrame(wire.data(), wire.size());
  EXPECT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().frame_size, wire.size());
  return frame.value();
}

TEST(Crc32Test, MatchesKnownVectors) {
  // The classic IEEE CRC-32 check value for "123456789".
  const char* check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const std::uint8_t*>(check), 9),
            0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(TenantNameTest, Validation) {
  EXPECT_TRUE(IsValidTenantName("latency"));
  EXPECT_TRUE(IsValidTenantName("a"));
  EXPECT_TRUE(IsValidTenantName("svc-1.region_2"));
  EXPECT_TRUE(IsValidTenantName(std::string(kMaxTenantNameLen, 'x')));
  EXPECT_FALSE(IsValidTenantName(""));
  EXPECT_FALSE(IsValidTenantName(".hidden"));
  EXPECT_FALSE(IsValidTenantName("has space"));
  EXPECT_FALSE(IsValidTenantName("sla$h"));
  EXPECT_FALSE(IsValidTenantName(std::string(kMaxTenantNameLen + 1, 'x')));
  EXPECT_FALSE(IsValidTenantName(std::string_view("nul\0byte", 8)));
}

TEST(FrameTest, CreateSketchRoundTrip) {
  TenantConfig config;
  config.eps = 0.02;
  config.delta = 1e-3;
  config.seed = 42;
  std::vector<std::uint8_t> wire;
  EncodeCreateSketch("tenant-a", config, &wire);

  const FrameView frame = MustDecode(wire);
  ASSERT_EQ(frame.type, MsgType::kCreateSketch);
  Result<CreateSketchRequest> req =
      DecodeCreateSketch(frame.payload, frame.payload_len);
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req.value().name, "tenant-a");
  EXPECT_TRUE(req.value().config == config);
}

// The config block's kind byte is a format constant: PutTenantConfig
// writes 0 and GetTenantConfig accepts nothing else. Bytes 1 (sharded),
// 2 (KLL) and 3 (deterministic reservoir) named retired kinds.
TEST(SketchKindTest, ConfigDecoderAcceptsOnlyKindZero) {
  std::vector<std::uint8_t> block;
  BinaryWriter writer(&block);
  PutTenantConfig(TenantConfig{}, &writer);
  ASSERT_EQ(block[0], 0);
  for (int kind = 0; kind <= 255; ++kind) {
    block[0] = static_cast<std::uint8_t>(kind);
    BinaryReader reader(block);
    TenantConfig decoded;
    const Status status = GetTenantConfig(&reader, &decoded);
    if (kind == 0) {
      EXPECT_TRUE(status.ok()) << status.ToString();
      continue;
    }
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << "kind " << kind;
    EXPECT_EQ(status.message(), "unknown sketch kind " + std::to_string(kind));
  }
}

// The config block CREATE_SKETCH, RESTORE and the registry checkpoint
// share: 25 bytes, validated on the way in.
TEST(TenantConfigTest, CodecRoundTripAndRangeChecks) {
  TenantConfig config;
  config.eps = 0.03;
  config.delta = 1e-6;
  config.seed = 0x0123456789abcdefull;
  std::vector<std::uint8_t> bytes;
  BinaryWriter writer(&bytes);
  PutTenantConfig(config, &writer);
  ASSERT_EQ(bytes.size(), 25u);
  BinaryReader reader(bytes);
  TenantConfig decoded;
  ASSERT_TRUE(GetTenantConfig(&reader, &decoded).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_TRUE(decoded == config);

  const auto rejected = [](TenantConfig c) {
    return ValidateTenantConfig(c).code() == StatusCode::kInvalidArgument;
  };
  EXPECT_TRUE(ValidateTenantConfig(TenantConfig{}).ok());
  TenantConfig bad;
  for (double eps : {0.0, -0.1, 0.51, std::nan(""),
                     std::numeric_limits<double>::infinity()}) {
    bad = TenantConfig{};
    bad.eps = eps;
    EXPECT_TRUE(rejected(bad)) << "eps " << eps;
  }
  for (double delta : {0.0, 1.0, std::nan("")}) {
    bad = TenantConfig{};
    bad.delta = delta;
    EXPECT_TRUE(rejected(bad)) << "delta " << delta;
  }
  bad = TenantConfig{};
  bad.eps = 0.5;  // inclusive upper bound
  EXPECT_FALSE(rejected(bad));
}

// The hot-path frames are pinned byte for byte: header, then name, count
// and little-endian doubles.
TEST(FrameTest, AddBatchAndQueryWireBytes) {
  const auto frame = [](std::uint8_t type,
                        const std::vector<std::uint8_t>& payload) {
    std::vector<std::uint8_t> wire(kFrameHeaderSize);
    StoreU32Le(wire.data(), static_cast<std::uint32_t>(payload.size() + 8));
    wire[4] = kProtocolVersion;
    wire[5] = type;
    StoreU32Le(wire.data() + 8, Crc32(payload.data(), payload.size()));
    wire.insert(wire.end(), payload.begin(), payload.end());
    return wire;
  };
  EXPECT_EQ(kProtocolVersion, 4);

  const std::vector<double> values = {1.5, -2.0};
  std::vector<std::uint8_t> payload = {2, 0, 'a', 'b', 2, 0, 0, 0, 0, 0, 0, 0};
  for (double v : values) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) payload.push_back((bits >> (8 * i)) & 0xff);
  }
  std::vector<std::uint8_t> wire;
  EncodeAddBatch("ab", values, &wire);
  EXPECT_EQ(wire, frame(2, payload));

  payload = {1, 0, 'q', 0, 0, 0, 0, 0, 0, 0xe0, 0x3f};  // phi = 0.5
  wire.clear();
  EncodeQuery("q", 0.5, &wire);
  EXPECT_EQ(wire, frame(3, payload));
}

TEST(FrameTest, UnknownSketchKindByteIsCleanError) {
  // Hand-build CREATE_SKETCH payloads carrying hostile kind bytes: every
  // one must come back as InvalidArgument from the decoder — never an
  // abort, and never a half-decoded request.
  for (int kind : {1, 2, 3, 4, 5, 17, 128, 255}) {
    std::vector<std::uint8_t> wire;
    {
      FrameBuilder frame(MsgType::kCreateSketch, &wire);
      frame.PutName("t");
      frame.PutU8(static_cast<std::uint8_t>(kind));
      frame.PutDouble(0.01);   // eps
      frame.PutDouble(1e-4);   // delta
      frame.PutU64(1);         // seed
      frame.Finish();
    }
    const FrameView frame = MustDecode(wire);
    Result<CreateSketchRequest> req =
        DecodeCreateSketch(frame.payload, frame.payload_len);
    ASSERT_FALSE(req.ok()) << "kind " << kind;
    EXPECT_EQ(req.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(req.status().message(),
              "unknown sketch kind " + std::to_string(kind));
  }
}

// The STATS reply's kind byte follows the config block's rule: the
// encoder writes 0 and the decoder rejects any other byte, retired kind 2
// included. The byte sits after the response header (request type,
// status, u16 message length), num_tenants, total_count and present.
TEST(ResponseTest, StatsReplyUnknownKindRejected) {
  constexpr std::size_t kKindOffset = kFrameHeaderSize + 4 + 8 + 8 + 1;
  StatsReply stats;
  stats.tenant_present = true;
  std::vector<std::uint8_t> good;
  EncodeStatsOk(stats, &good);
  ASSERT_EQ(good[kKindOffset], 0);
  for (std::uint8_t kind : {2, 9}) {
    std::vector<std::uint8_t> wire = good;
    wire[kKindOffset] = kind;
    StoreU32Le(wire.data() + 8, Crc32(wire.data() + kFrameHeaderSize,
                                      wire.size() - kFrameHeaderSize));
    const FrameView frame = MustDecode(wire);
    Result<ResponseView> response =
        DecodeResponse(frame.payload, frame.payload_len);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(DecodeStatsOk(response.value()).status().code(),
              StatusCode::kInvalidArgument)
        << "kind " << int{kind};
  }
}

TEST(FrameTest, AddBatchRoundTrip) {
  const std::vector<Value> values = {1.5, -2.25, 0.0, 1e300};
  std::vector<std::uint8_t> wire;
  EncodeAddBatch("t", values, &wire);

  const FrameView frame = MustDecode(wire);
  ASSERT_EQ(frame.type, MsgType::kAddBatch);
  Result<AddBatchRequest> req = DecodeAddBatch(frame.payload,
                                               frame.payload_len);
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req.value().name, "t");
  ASSERT_EQ(req.value().count, values.size());
  std::vector<double> decoded;
  ASSERT_TRUE(DecodeDoublesInto(req.value().values_le, req.value().count,
                                /*reject_nan=*/true, &decoded)
                  .ok());
  EXPECT_EQ(decoded, values);
}

TEST(FrameTest, QueryAndQueryMultiRoundTrip) {
  std::vector<std::uint8_t> wire;
  EncodeQuery("t", 0.5, &wire);
  FrameView frame = MustDecode(wire);
  Result<QueryRequest> q = DecodeQuery(frame.payload, frame.payload_len);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().name, "t");
  EXPECT_EQ(q.value().phi, 0.5);

  wire.clear();
  const std::vector<double> phis = {0.1, 0.5, 0.99};
  EncodeQueryMulti("t", phis, &wire);
  frame = MustDecode(wire);
  Result<QueryMultiRequest> qm =
      DecodeQueryMulti(frame.payload, frame.payload_len);
  ASSERT_TRUE(qm.ok());
  std::vector<double> decoded;
  ASSERT_TRUE(DecodeDoublesInto(qm.value().phis_le, qm.value().count,
                                /*reject_nan=*/true, &decoded)
                  .ok());
  EXPECT_EQ(decoded, phis);
}

TEST(FrameTest, NameRequestsRoundTrip) {
  for (MsgType type :
       {MsgType::kSnapshot, MsgType::kDelete, MsgType::kStats}) {
    std::vector<std::uint8_t> wire;
    EncodeNameRequest(type, "t", &wire);
    const FrameView frame = MustDecode(wire);
    ASSERT_EQ(frame.type, type);
    Result<NameRequest> req =
        DecodeNameRequest(type, frame.payload, frame.payload_len);
    ASSERT_TRUE(req.ok());
    EXPECT_EQ(req.value().name, "t");
  }
  // STATS (and only STATS) accepts an empty name: global statistics.
  std::vector<std::uint8_t> wire;
  EncodeNameRequest(MsgType::kStats, "", &wire);
  const FrameView frame = MustDecode(wire);
  EXPECT_TRUE(
      DecodeNameRequest(MsgType::kStats, frame.payload, frame.payload_len)
          .ok());
}

TEST(FrameTest, PingRoundTrip) {
  std::vector<std::uint8_t> wire;
  EncodePing(&wire);
  const FrameView frame = MustDecode(wire);
  ASSERT_EQ(frame.type, MsgType::kPing);
  EXPECT_EQ(frame.payload_len, 0u);
  EXPECT_TRUE(DecodePing(frame.payload, frame.payload_len).ok());
  // PING is strictly empty; a stray byte is rejected.
  const std::uint8_t junk[1] = {0};
  EXPECT_FALSE(DecodePing(junk, 1).ok());
}

TEST(FrameTest, FetchSummaryRoundTrip) {
  std::vector<std::uint8_t> wire;
  EncodeNameRequest(MsgType::kFetchSummary, "t", &wire);
  const FrameView frame = MustDecode(wire);
  ASSERT_EQ(frame.type, MsgType::kFetchSummary);
  Result<NameRequest> req =
      DecodeNameRequest(MsgType::kFetchSummary, frame.payload,
                        frame.payload_len);
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req.value().name, "t");
  // FETCH_SUMMARY needs a tenant; an empty name is rejected.
  wire.clear();
  EncodeNameRequest(MsgType::kStats, "", &wire);
  const FrameView empty = MustDecode(wire);
  EXPECT_FALSE(DecodeNameRequest(MsgType::kFetchSummary, empty.payload,
                                 empty.payload_len)
                   .ok());
}

TEST(FrameTest, RestoreRoundTrip) {
  TenantConfig config;
  config.eps = 0.02;
  config.delta = 1e-5;
  config.seed = 99;
  const std::uint8_t blob[4] = {1, 2, 3, 4};
  std::vector<std::uint8_t> wire;
  EncodeRestore("t", config, blob, &wire);
  const FrameView frame = MustDecode(wire);
  ASSERT_EQ(frame.type, MsgType::kRestore);
  Result<RestoreRequest> req = DecodeRestore(frame.payload, frame.payload_len);
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req.value().name, "t");
  EXPECT_TRUE(req.value().config == config);
  ASSERT_EQ(req.value().blob_len, sizeof(blob));
  EXPECT_EQ(std::memcmp(req.value().blob, blob, sizeof(blob)), 0);

  // A blob length that disagrees with the remaining bytes is rejected.
  std::vector<std::uint8_t> truncated(frame.payload,
                                      frame.payload + frame.payload_len - 1);
  EXPECT_FALSE(DecodeRestore(truncated.data(), truncated.size()).ok());
}

TEST(FrameTest, IncompleteBufferIsOutOfRange) {
  std::vector<std::uint8_t> wire;
  EncodeQuery("t", 0.5, &wire);
  for (std::size_t n = 0; n < wire.size(); ++n) {
    Result<FrameView> frame = DecodeFrame(wire.data(), n);
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.status().code(), StatusCode::kOutOfRange)
        << "prefix length " << n;
  }
}

TEST(FrameTest, CorruptionIsRejected) {
  std::vector<std::uint8_t> wire;
  EncodeQuery("t", 0.5, &wire);

  // Any single flipped payload bit must fail the CRC.
  for (std::size_t i = kFrameHeaderSize; i < wire.size(); ++i) {
    std::vector<std::uint8_t> bad = wire;
    bad[i] ^= 0x01;
    Result<FrameView> frame = DecodeFrame(bad.data(), bad.size());
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
  }

  std::vector<std::uint8_t> bad = wire;
  bad[4] = 99;  // version
  EXPECT_FALSE(DecodeFrame(bad.data(), bad.size()).ok());

  bad = wire;
  bad[5] = 0;  // type below range
  EXPECT_FALSE(DecodeFrame(bad.data(), bad.size()).ok());
  bad[5] = 12;  // type above range (11 = kRestore is the v3 ceiling)
  EXPECT_FALSE(DecodeFrame(bad.data(), bad.size()).ok());

  bad = wire;
  bad[6] = 1;  // reserved bits
  EXPECT_FALSE(DecodeFrame(bad.data(), bad.size()).ok());

  bad = wire;
  bad[0] = 0xFF;  // absurd length prefix
  bad[1] = 0xFF;
  bad[2] = 0xFF;
  bad[3] = 0xFF;
  Result<FrameView> frame = DecodeFrame(bad.data(), bad.size());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameTest, SemanticValidation) {
  std::vector<std::uint8_t> wire;

  // phi outside (0, 1].
  for (double phi : {0.0, -0.5, 1.5,
                     std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    wire.clear();
    EncodeQuery("t", phi, &wire);
    const FrameView frame = MustDecode(wire);
    EXPECT_FALSE(DecodeQuery(frame.payload, frame.payload_len).ok())
        << "phi=" << phi;
  }

  // NaN values rejected at the boundary (keeps the sketches' NaN
  // CHECK-abort unreachable from the network).
  wire.clear();
  const std::vector<Value> values = {
      1.0, std::numeric_limits<double>::quiet_NaN()};
  EncodeAddBatch("t", values, &wire);
  const FrameView frame = MustDecode(wire);
  Result<AddBatchRequest> req = DecodeAddBatch(frame.payload,
                                               frame.payload_len);
  ASSERT_TRUE(req.ok());
  std::vector<double> decoded;
  EXPECT_FALSE(DecodeDoublesInto(req.value().values_le, req.value().count,
                                 /*reject_nan=*/true, &decoded)
                   .ok());

  // Bad tenant config.
  TenantConfig config;
  config.eps = 0.75;
  wire.clear();
  EncodeCreateSketch("t", config, &wire);
  const FrameView bad_eps = MustDecode(wire);
  EXPECT_FALSE(DecodeCreateSketch(bad_eps.payload, bad_eps.payload_len).ok());
}

TEST(FrameTest, TrailingBytesRejected) {
  // Append a byte to the QUERY payload and refresh length + CRC: framing is
  // fine, but the request decoder must reject the excess.
  std::vector<std::uint8_t> wire;
  EncodeQuery("t", 0.5, &wire);
  wire.push_back(0x00);
  const std::uint32_t body_len =
      static_cast<std::uint32_t>(wire.size() - 4);
  for (int i = 0; i < 4; ++i) {
    wire[static_cast<std::size_t>(i)] = (body_len >> (8 * i)) & 0xff;
  }
  const std::uint32_t crc =
      Crc32(wire.data() + kFrameHeaderSize, wire.size() - kFrameHeaderSize);
  for (int i = 0; i < 4; ++i) {
    wire[8 + static_cast<std::size_t>(i)] = (crc >> (8 * i)) & 0xff;
  }
  const FrameView frame = MustDecode(wire);
  EXPECT_FALSE(DecodeQuery(frame.payload, frame.payload_len).ok());
}

TEST(ResponseTest, ErrorRoundTrip) {
  std::vector<std::uint8_t> wire;
  EncodeErrorResponse(MsgType::kQuery, Status::NotFound("unknown tenant"),
                      &wire);
  const FrameView frame = MustDecode(wire);
  ASSERT_EQ(frame.type, MsgType::kResponse);
  Result<ResponseView> response =
      DecodeResponse(frame.payload, frame.payload_len);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().request_type, MsgType::kQuery);
  EXPECT_FALSE(response.value().ok());
  const Status status = response.value().ToStatus();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "unknown tenant");
}

TEST(ResponseTest, TypedBodiesRoundTrip) {
  std::vector<std::uint8_t> wire;

  EncodeAddBatchOk(12345, &wire);
  FrameView frame = MustDecode(wire);
  Result<ResponseView> response =
      DecodeResponse(frame.payload, frame.payload_len);
  ASSERT_TRUE(response.ok());
  Result<std::uint64_t> count = DecodeAddBatchOk(response.value());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 12345u);

  wire.clear();
  EncodeQueryOk(3.25, &wire);
  frame = MustDecode(wire);
  response = DecodeResponse(frame.payload, frame.payload_len);
  ASSERT_TRUE(response.ok());
  Result<double> answer = DecodeQueryOk(response.value());
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.value(), 3.25);

  wire.clear();
  const std::vector<Value> values = {1.0, 2.0, 3.0};
  EncodeQueryMultiOk(values, &wire);
  frame = MustDecode(wire);
  response = DecodeResponse(frame.payload, frame.payload_len);
  ASSERT_TRUE(response.ok());
  std::vector<Value> out;
  ASSERT_TRUE(DecodeQueryMultiOk(response.value(), &out).ok());
  EXPECT_EQ(out, values);

  wire.clear();
  const std::vector<std::uint8_t> blob = {0xDE, 0xAD, 0xBE, 0xEF};
  EncodeSnapshotOk(blob, &wire);
  frame = MustDecode(wire);
  response = DecodeResponse(frame.payload, frame.payload_len);
  ASSERT_TRUE(response.ok());
  std::vector<std::uint8_t> blob_out;
  ASSERT_TRUE(DecodeSnapshotOk(response.value(), &blob_out).ok());
  EXPECT_EQ(blob_out, blob);

  wire.clear();
  StatsReply stats;
  stats.num_tenants = 2;
  stats.total_count = 1000;
  stats.tenant_present = true;
  stats.tenant_count = 600;
  stats.tenant_memory_elements = 4096;
  EncodeStatsOk(stats, &wire);
  frame = MustDecode(wire);
  response = DecodeResponse(frame.payload, frame.payload_len);
  ASSERT_TRUE(response.ok());
  Result<StatsReply> stats_out = DecodeStatsOk(response.value());
  ASSERT_TRUE(stats_out.ok());
  EXPECT_EQ(stats_out.value().num_tenants, 2u);
  EXPECT_EQ(stats_out.value().total_count, 1000u);
  EXPECT_TRUE(stats_out.value().tenant_present);
  EXPECT_EQ(stats_out.value().tenant_count, 600u);
  EXPECT_EQ(stats_out.value().tenant_memory_elements, 4096u);
}

TEST(ResponseTest, MixedOkAndErrorShapesRejected) {
  // Hand-build a response claiming OK but carrying an error message.
  std::vector<std::uint8_t> wire;
  {
    FrameBuilder frame(MsgType::kResponse, &wire);
    frame.PutU8(static_cast<std::uint8_t>(MsgType::kQuery));
    frame.PutU8(static_cast<std::uint8_t>(StatusCode::kOk));
    frame.PutU16(3);
    const char* msg = "boo";
    frame.PutBytes(reinterpret_cast<const std::uint8_t*>(msg), 3);
    frame.Finish();
  }
  FrameView frame = MustDecode(wire);
  EXPECT_FALSE(DecodeResponse(frame.payload, frame.payload_len).ok());

  // And an error that smuggles a body.
  wire.clear();
  {
    FrameBuilder builder(MsgType::kResponse, &wire);
    builder.PutU8(static_cast<std::uint8_t>(MsgType::kQuery));
    builder.PutU8(static_cast<std::uint8_t>(StatusCode::kNotFound));
    builder.PutU16(0);
    builder.PutU64(7);  // body where none is allowed
    builder.Finish();
  }
  frame = MustDecode(wire);
  EXPECT_FALSE(DecodeResponse(frame.payload, frame.payload_len).ok());
}

// The reply to a frame that names no request (bad CRC, unknown type or
// version, a response sent to a server) echoes kResponse. An error may carry
// that echo, so a client reads the server's own message; an OK may not.
TEST(ResponseTest, UnattributableErrorEchoesResponseType) {
  std::vector<std::uint8_t> wire;
  EncodeErrorResponse(MsgType::kResponse,
                      Status::InvalidArgument("unsupported protocol version"),
                      &wire);
  FrameView frame = MustDecode(wire);
  Result<ResponseView> response =
      DecodeResponse(frame.payload, frame.payload_len);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().request_type, MsgType::kResponse);
  EXPECT_EQ(response.value().code, StatusCode::kInvalidArgument);
  EXPECT_EQ(response.value().message, "unsupported protocol version");

  wire.clear();
  EncodeEmptyOk(MsgType::kResponse, &wire);
  frame = MustDecode(wire);
  EXPECT_FALSE(DecodeResponse(frame.payload, frame.payload_len).ok());
}

// Fails every request with NotFound and counts the calls that reach it.
class CountingHandler final : public RequestHandler {
 public:
  int calls = 0;

  Status CreateSketch(std::string_view, const TenantConfig&) override {
    return Miss();
  }
  Result<std::uint64_t> AddBatch(std::string_view,
                                 std::span<const Value>) override {
    return Miss();
  }
  Result<Value> Query(std::string_view, double) override { return Miss(); }
  Status QueryMulti(std::string_view, std::span<const double>,
                    std::vector<Value>*) override {
    return Miss();
  }
  Status Snapshot(std::string_view, std::vector<std::uint8_t>*) override {
    return Miss();
  }
  Status Delete(std::string_view) override { return Miss(); }
  Result<StatsReply> Stats(std::string_view) override { return Miss(); }
  Status FetchSummary(std::string_view,
                      std::vector<std::uint8_t>*) override {
    return Miss();
  }
  Status Restore(std::string_view, const TenantConfig&,
                 std::span<const std::uint8_t>) override {
    return Miss();
  }

 private:
  Status Miss() {
    ++calls;
    return Status::NotFound("no such tenant");
  }
};

// Serves one frame and decodes the single reply it must produce.
ResponseView ServeOne(const std::vector<std::uint8_t>& request,
                      RequestHandler& handler,
                      std::vector<std::uint8_t>* reply) {
  reply->clear();
  ServeRequest(request, handler, reply);
  const FrameView frame = MustDecode(*reply);
  EXPECT_EQ(frame.type, MsgType::kResponse);
  Result<ResponseView> response =
      DecodeResponse(frame.payload, frame.payload_len);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return response.value();
}

TEST(ServeRequestTest, EchoesAndHandlerCalls) {
  CountingHandler handler;
  std::vector<std::uint8_t> request;
  std::vector<std::uint8_t> reply;

  // PING is answered without the handler.
  EncodePing(&request);
  ResponseView response = ServeOne(request, handler, &reply);
  EXPECT_EQ(response.request_type, MsgType::kPing);
  EXPECT_TRUE(response.ok());
  EXPECT_EQ(handler.calls, 0);

  // A handler error echoes the request type.
  request.clear();
  EncodeQuery("t", 0.5, &request);
  response = ServeOne(request, handler, &reply);
  EXPECT_EQ(response.request_type, MsgType::kQuery);
  EXPECT_EQ(response.code, StatusCode::kNotFound);
  EXPECT_EQ(handler.calls, 1);

  // A decode error also echoes the request type, and never reaches the
  // handler: phi out of range, a NaN value.
  request.clear();
  EncodeQuery("t", 1.5, &request);
  response = ServeOne(request, handler, &reply);
  EXPECT_EQ(response.request_type, MsgType::kQuery);
  EXPECT_EQ(response.code, StatusCode::kInvalidArgument);
  request.clear();
  const std::vector<Value> nan = {1.0, std::nan("")};
  EncodeAddBatch("t", nan, &request);
  response = ServeOne(request, handler, &reply);
  EXPECT_EQ(response.request_type, MsgType::kAddBatch);
  EXPECT_EQ(response.code, StatusCode::kInvalidArgument);
  EXPECT_EQ(handler.calls, 1);

  // Another protocol version and a response frame name no request.
  request.clear();
  EncodeQuery("t", 0.5, &request);
  request[4] = kProtocolVersion + 1;
  response = ServeOne(request, handler, &reply);
  EXPECT_EQ(response.request_type, MsgType::kResponse);
  EXPECT_EQ(response.message, "unsupported protocol version");
  request.clear();
  EncodeEmptyOk(MsgType::kDelete, &request);
  response = ServeOne(request, handler, &reply);
  EXPECT_EQ(response.request_type, MsgType::kResponse);
  EXPECT_EQ(response.message, "response frame sent to server");
  EXPECT_EQ(handler.calls, 1);
}

TEST(FrameTest, StreamDecodingConsumesExactFrames) {
  // Two back-to-back frames in one buffer: DecodeFrame must report the
  // first frame's exact size so a stream loop can advance.
  std::vector<std::uint8_t> wire;
  EncodeQuery("a", 0.25, &wire);
  const std::size_t first = wire.size();
  EncodeNameRequest(MsgType::kDelete, "b", &wire);

  Result<FrameView> frame = DecodeFrame(wire.data(), wire.size());
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame.value().type, MsgType::kQuery);
  EXPECT_EQ(frame.value().frame_size, first);

  Result<FrameView> second = DecodeFrame(wire.data() + first,
                                         wire.size() - first);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().type, MsgType::kDelete);
}

}  // namespace
}  // namespace server
}  // namespace mrl
