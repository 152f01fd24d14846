// Request-pipelining and stream-framing edge cases for the frame server
// (src/server/frame_server.h), the serving substrate of both the daemon
// and the router. The wire protocol is length-prefixed frames over a byte
// stream, so a server must decode correctly no matter how the bytes are
// sliced into reads — and it must survive clients that write many
// requests before reading any response. Every case runs twice: against a
// daemon directly, and against a router in front of one daemon, whose
// handler forwards each frame to the backend and appends the reply behind
// the earlier pipelined ones.
//
// Raw-socket tests drive the framing layer directly (frames split across
// read boundaries, many frames in one read); Client-API tests cover the
// pipelining contract of docs/wire_protocol.md (responses per connection
// in request order); the slow-reader tests pin the per-connection
// write-buffer cap behavior: a graceful ResourceExhausted ERROR response
// followed by close, never unbounded buffering.

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "router/router.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "util/net.h"
#include "util/random.h"

namespace mrl {
namespace server {
namespace {

std::vector<Value> UniformStream(std::size_t n, std::uint64_t seed) {
  Random rng(seed);
  std::vector<Value> values(n);
  for (Value& v : values) v = rng.UniformDouble();
  return values;
}

/// One decoded response, materialized (no borrowed views) so many can be
/// collected before asserting.
struct Reply {
  MsgType request_type = MsgType::kResponse;
  StatusCode code = StatusCode::kOk;
  std::string message;
  std::vector<std::uint8_t> body;
};

/// What a case talks to.
enum class Target {
  kDaemon,  ///< a QuantileServer
  kRouter,  ///< a Router in front of one QuantileServer
};

class ServerPipelineTest : public ::testing::TestWithParam<Target> {
 protected:
  void SetUp() override {
    const std::string base =
        "/tmp/mrlq_pipe_test." + std::to_string(static_cast<long>(::getpid()));
    uds_path_ = base + ".sock";
    backend_path_ = base + ".backend.sock";
  }

  void TearDown() override {
    router_.reset();
    server_.reset();
    std::remove(uds_path_.c_str());
    std::remove(backend_path_.c_str());
  }

  /// Starts the target; clients connect to uds_path_ either way.
  void StartServer() {
    const bool routed = GetParam() == Target::kRouter;
    ServerOptions options;
    options.uds_path = routed ? backend_path_ : uds_path_;
    options.num_shards = 2;  // connections land on both shards
    Result<std::unique_ptr<QuantileServer>> server =
        QuantileServer::Create(std::move(options));
    ASSERT_TRUE(server.ok()) << server.status().message();
    server_ = std::move(server).value();
    if (!routed) return;
    router::RouterOptions router_options;
    router_options.uds_path = uds_path_;
    router_options.backends = {"unix:" + backend_path_};
    Result<std::unique_ptr<router::Router>> router =
        router::Router::Create(std::move(router_options));
    ASSERT_TRUE(router.ok()) << router.status().message();
    router_ = std::move(router).value();
  }

  /// Raw connected socket (caller closes).
  int ConnectRaw() {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, uds_path_.c_str(), uds_path_.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0)
        << std::strerror(errno);
    // A reply that never comes (a lost pipelined response) fails the read
    // instead of hanging the suite.
    const timeval timeout{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    return fd;
  }

  /// Reads and decodes exactly one response frame. False on EOF or a
  /// malformed frame (asserts on the latter).
  static bool ReadReply(int fd, Reply* out) {
    std::uint8_t prefix[4];
    if (net::RecvAll(fd, prefix, sizeof(prefix)) != net::IoOutcome::kOk) {
      return false;
    }
    const std::uint32_t body_len =
        static_cast<std::uint32_t>(prefix[0]) |
        (static_cast<std::uint32_t>(prefix[1]) << 8) |
        (static_cast<std::uint32_t>(prefix[2]) << 16) |
        (static_cast<std::uint32_t>(prefix[3]) << 24);
    std::vector<std::uint8_t> body(body_len);
    if (net::RecvAll(fd, body.data(), body.size()) != net::IoOutcome::kOk) {
      return false;
    }
    Result<FrameView> frame = DecodeFrameBody(body.data(), body.size());
    EXPECT_TRUE(frame.ok()) << frame.status().message();
    if (!frame.ok()) return false;
    EXPECT_EQ(frame.value().type, MsgType::kResponse);
    Result<ResponseView> view =
        DecodeResponse(frame.value().payload, frame.value().payload_len);
    EXPECT_TRUE(view.ok()) << view.status().message();
    if (!view.ok()) return false;
    out->request_type = view.value().request_type;
    out->code = view.value().code;
    out->message = std::string(view.value().message);
    out->body.assign(view.value().body,
                     view.value().body + view.value().body_len);
    return true;
  }

  std::string uds_path_;
  std::string backend_path_;
  std::unique_ptr<QuantileServer> server_;
  std::unique_ptr<router::Router> router_;
};

// A frame dribbled in one-byte writes — the length prefix, header, and
// payload all split across readv boundaries — must decode exactly as if
// it arrived whole.
TEST_P(ServerPipelineTest, PartialFramesAcrossReadBoundaries) {
  StartServer();
  const int fd = ConnectRaw();

  std::vector<std::uint8_t> wire;
  EncodeCreateSketch("dribble", TenantConfig{}, &wire);
  for (const std::uint8_t byte : wire) {
    ASSERT_EQ(net::SendAll(fd, &byte, 1), net::IoOutcome::kOk);
  }
  Reply reply;
  ASSERT_TRUE(ReadReply(fd, &reply));
  EXPECT_EQ(reply.request_type, MsgType::kCreateSketch);
  EXPECT_EQ(reply.code, StatusCode::kOk) << reply.message;

  // An ADD_BATCH split at awkward offsets: mid-length-prefix, mid-header,
  // and mid-payload.
  wire.clear();
  const std::vector<Value> values = UniformStream(100, 3);
  EncodeAddBatch("dribble", values, &wire);
  const std::size_t cuts[] = {2, kFrameHeaderSize - 1, kFrameHeaderSize + 37,
                              wire.size()};
  std::size_t at = 0;
  for (const std::size_t cut : cuts) {
    ASSERT_EQ(net::SendAll(fd, wire.data() + at, cut - at),
              net::IoOutcome::kOk);
    at = cut;
  }
  ASSERT_TRUE(ReadReply(fd, &reply));
  EXPECT_EQ(reply.request_type, MsgType::kAddBatch);
  EXPECT_EQ(reply.code, StatusCode::kOk) << reply.message;

  ::close(fd);
}

// Many frames written back-to-back arrive in one readv; the shard must
// decode them all from a single readiness event and answer each, in
// order.
TEST_P(ServerPipelineTest, MultipleFramesPerReadAnswerInOrder) {
  StartServer();
  const int fd = ConnectRaw();

  constexpr int kBatches = 16;
  std::vector<std::uint8_t> wire;
  EncodeCreateSketch("burst", TenantConfig{}, &wire);
  for (int i = 0; i < kBatches; ++i) {
    EncodeAddBatch("burst", std::vector<Value>{static_cast<Value>(i)}, &wire);
  }
  EncodeQuery("burst", 1.0, &wire);
  ASSERT_EQ(net::SendAll(fd, wire.data(), wire.size()), net::IoOutcome::kOk);

  Reply reply;
  ASSERT_TRUE(ReadReply(fd, &reply));
  EXPECT_EQ(reply.request_type, MsgType::kCreateSketch);
  EXPECT_EQ(reply.code, StatusCode::kOk) << reply.message;
  for (int i = 0; i < kBatches; ++i) {
    ASSERT_TRUE(ReadReply(fd, &reply));
    EXPECT_EQ(reply.request_type, MsgType::kAddBatch);
    ASSERT_EQ(reply.code, StatusCode::kOk) << reply.message;
    // The ADD_BATCH body is the running element count: in-order proof.
    ASSERT_EQ(reply.body.size(), 8u);
    std::uint64_t count = 0;
    std::memcpy(&count, reply.body.data(), 8);
    EXPECT_EQ(count, static_cast<std::uint64_t>(i) + 1);
  }
  ASSERT_TRUE(ReadReply(fd, &reply));
  EXPECT_EQ(reply.request_type, MsgType::kQuery);
  EXPECT_EQ(reply.code, StatusCode::kOk) << reply.message;

  ::close(fd);
}

// The Client pipelining API end to end: one flush carries CREATE + many
// ADD_BATCH + QUERY, and the replies come back positionally.
TEST_P(ServerPipelineTest, ClientPipelineRepliesMatchRequests) {
  StartServer();
  Result<Client> connected = Client::ConnectUnix(uds_path_);
  ASSERT_TRUE(connected.ok()) << connected.status().message();
  Client client = std::move(connected).value();

  const std::vector<Value> values = UniformStream(4096, 5);
  client.PipelineCreateSketch("pipe", TenantConfig{});
  constexpr int kBatches = 8;
  for (int i = 0; i < kBatches; ++i) {
    client.PipelineAddBatch(
        "pipe", std::span<const Value>(values.data() + i * 512, 512));
  }
  client.PipelineQuery("pipe", 0.5);
  EXPECT_EQ(client.pipeline_depth(), static_cast<std::size_t>(kBatches) + 2);

  // A blocking call with a pipeline queued is a usage error and must not
  // disturb the queued requests.
  EXPECT_EQ(client.CreateSketch("other", TenantConfig{}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.pipeline_depth(), static_cast<std::size_t>(kBatches) + 2);

  std::vector<Client::PipelineReply> replies;
  ASSERT_TRUE(client.PipelineFlush(&replies).ok());
  ASSERT_EQ(replies.size(), static_cast<std::size_t>(kBatches) + 2);
  EXPECT_EQ(replies.front().request_type, MsgType::kCreateSketch);
  EXPECT_TRUE(replies.front().status.ok()) << replies.front().status.message();
  for (int i = 0; i < kBatches; ++i) {
    const Client::PipelineReply& reply = replies[static_cast<std::size_t>(i) + 1];
    EXPECT_EQ(reply.request_type, MsgType::kAddBatch);
    ASSERT_TRUE(reply.status.ok()) << reply.status.message();
    EXPECT_EQ(reply.count, static_cast<std::uint64_t>(i + 1) * 512);
  }
  const Client::PipelineReply& query = replies.back();
  EXPECT_EQ(query.request_type, MsgType::kQuery);
  ASSERT_TRUE(query.status.ok()) << query.status.message();
  EXPECT_GT(query.value, 0.0);
  EXPECT_LT(query.value, 1.0);

  // The connection (and plain blocking calls) remain usable after a flush.
  EXPECT_EQ(client.pipeline_depth(), 0u);
  Result<std::uint64_t> count =
      client.AddBatch("pipe", std::span<const Value>(values.data(), 1));
  ASSERT_TRUE(count.ok()) << count.status().message();
  EXPECT_EQ(count.value(), static_cast<std::uint64_t>(kBatches) * 512 + 1);
}

// Server-side per-request errors are isolated to their reply; the
// requests after them still execute and the connection survives.
TEST_P(ServerPipelineTest, PipelinedErrorsAreIsolatedPerRequest) {
  StartServer();
  Result<Client> connected = Client::ConnectUnix(uds_path_);
  ASSERT_TRUE(connected.ok());
  Client client = std::move(connected).value();

  client.PipelineAddBatch("ghost", std::vector<Value>{1.0});  // NotFound
  client.PipelineCreateSketch("real", TenantConfig{});
  client.PipelineAddBatch("real", std::vector<Value>{1.0, 2.0});
  client.PipelineQuery("ghost", 0.5);  // NotFound again

  std::vector<Client::PipelineReply> replies;
  ASSERT_TRUE(client.PipelineFlush(&replies).ok());
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_EQ(replies[0].status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(replies[1].status.ok()) << replies[1].status.message();
  EXPECT_TRUE(replies[2].status.ok()) << replies[2].status.message();
  EXPECT_EQ(replies[2].count, 2u);
  EXPECT_EQ(replies[3].status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(client.connected());
}

// A response backlog larger than the socket buffers: the server's writev
// returns short/EAGAIN, it arms EPOLLOUT, and drains the queue as the
// client reads. Every response must still arrive, in order.
TEST_P(ServerPipelineTest, ResponseBacklogDrainsViaShortWrites) {
  StartServer();
  const int fd = ConnectRaw();

  // One tenant with enough data that QUERY_MULTI responses are meaty.
  std::vector<std::uint8_t> wire;
  EncodeCreateSketch("backlog", TenantConfig{}, &wire);
  EncodeAddBatch("backlog", UniformStream(100000, 7), &wire);
  ASSERT_EQ(net::SendAll(fd, wire.data(), wire.size()), net::IoOutcome::kOk);
  Reply reply;
  ASSERT_TRUE(ReadReply(fd, &reply));
  ASSERT_EQ(reply.code, StatusCode::kOk) << reply.message;
  ASSERT_TRUE(ReadReply(fd, &reply));
  ASSERT_EQ(reply.code, StatusCode::kOk) << reply.message;

  // 64 QUERY_MULTI frames x 1000 ranks: ~8 KiB per response, ~512 KiB of
  // backlog — past any default socket buffer, so the server must hold the
  // tail in its write buffer and flush incrementally.
  std::vector<double> phis(1000);
  for (std::size_t i = 0; i < phis.size(); ++i) {
    phis[i] = (static_cast<double>(i) + 1) / (phis.size() + 1);
  }
  constexpr int kRequests = 64;
  wire.clear();
  for (int i = 0; i < kRequests; ++i) {
    EncodeQueryMulti("backlog", phis, &wire);
  }
  ASSERT_EQ(net::SendAll(fd, wire.data(), wire.size()), net::IoOutcome::kOk);

  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(ReadReply(fd, &reply)) << "response " << i;
    EXPECT_EQ(reply.request_type, MsgType::kQueryMulti);
    ASSERT_EQ(reply.code, StatusCode::kOk) << reply.message;
    // u64 count + 1000 doubles.
    EXPECT_EQ(reply.body.size(), 8u + phis.size() * 8u);
  }

  ::close(fd);
}

// A slow reader that pipelines past the per-connection write-buffer cap
// (one max-size frame plus 64 KiB) gets a graceful ResourceExhausted ERROR
// response and a close — the server never buffers without bound.
// Responses completed before the overflow still arrive first (the
// guarantee is in-order up to the error).
TEST_P(ServerPipelineTest, SlowReaderHitsWriteBufferCap) {
  StartServer();
  const int fd = ConnectRaw();

  std::vector<std::uint8_t> wire;
  EncodeCreateSketch("slow", TenantConfig{}, &wire);
  EncodeAddBatch("slow", UniformStream(100000, 9), &wire);
  ASSERT_EQ(net::SendAll(fd, wire.data(), wire.size()), net::IoOutcome::kOk);
  Reply reply;
  ASSERT_TRUE(ReadReply(fd, &reply));
  ASSERT_EQ(reply.code, StatusCode::kOk) << reply.message;
  ASSERT_TRUE(ReadReply(fd, &reply));
  ASSERT_EQ(reply.code, StatusCode::kOk) << reply.message;

  // SNAPSHOT requests are ~20 bytes but their responses carry the whole
  // tenant blob (~28 KiB here): 2048 of them fit comfortably in the socket
  // buffers — the send below cannot block — while the responses would
  // total ~56 MiB. Without reading a single one, the backlog blows through
  // the ~16 MiB cap and the server must fail this connection cleanly
  // instead of buffering it all.
  constexpr int kRequests = 2048;
  wire.clear();
  for (int i = 0; i < kRequests; ++i) {
    EncodeNameRequest(MsgType::kSnapshot, "slow", &wire);
  }
  ASSERT_EQ(net::SendAll(fd, wire.data(), wire.size()), net::IoOutcome::kOk);

  // Now read: some number of completed responses, then exactly one
  // ResourceExhausted ERROR, then EOF.
  int ok_responses = 0;
  bool saw_cap_error = false;
  while (ReadReply(fd, &reply)) {
    if (reply.code == StatusCode::kOk) {
      ASSERT_FALSE(saw_cap_error) << "response after the cap error";
      ++ok_responses;
      continue;
    }
    EXPECT_EQ(reply.code, StatusCode::kResourceExhausted);
    EXPECT_FALSE(saw_cap_error) << "more than one cap error";
    saw_cap_error = true;
  }
  EXPECT_TRUE(saw_cap_error);
  EXPECT_LT(ok_responses, kRequests);

  ::close(fd);

  // The server itself is unaffected: a fresh connection works.
  Result<Client> connected = Client::ConnectUnix(uds_path_);
  ASSERT_TRUE(connected.ok());
  EXPECT_TRUE(connected.value().Query("slow", 0.5).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Targets, ServerPipelineTest,
    ::testing::Values(Target::kDaemon, Target::kRouter),
    [](const ::testing::TestParamInfo<Target>& info) {
      return info.param == Target::kDaemon ? "daemon" : "router";
    });

}  // namespace
}  // namespace server
}  // namespace mrl
