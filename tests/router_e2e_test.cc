// End-to-end tests for the distributed tier (src/router/): an in-process
// Router fronting three real mrlquantd processes over Unix sockets.
// Covers consistent-hash forwarding, the Section 6 fan-out merge for
// partitioned tenants, replicated writes, SNAPSHOT→RESTORE replica
// resync, and the acceptance scenario: SIGKILL the owning backend
// mid-ingest, the router fails the tenant over to its replica, and
// subsequent queries stay within the configured eps of the exact
// baseline.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "router/router.h"
#include "server/client.h"
#include "util/random.h"
#include "util/serde.h"

namespace mrl {
namespace router {
namespace {

using server::Client;
using server::TenantConfig;

std::vector<Value> UniformStream(std::size_t n, std::uint64_t seed) {
  Random rng(seed);
  std::vector<Value> values(n);
  for (Value& v : values) v = rng.UniformDouble();
  return values;
}

double RankOf(const std::vector<Value>& sorted, Value answer) {
  const auto it = std::upper_bound(sorted.begin(), sorted.end(), answer);
  return static_cast<double>(it - sorted.begin()) /
         static_cast<double>(sorted.size());
}

// Unix-domain sockets are the one transport: a backend address is
// "unix:PATH" with a non-empty PATH, and the router needs its own socket
// path. Create refuses anything else before it binds or dials.
TEST(RouterCreateTest, RejectsNonUnixBackendsAndMissingSocketPath) {
  const std::string base = "/tmp/mrlq_router_create_" +
                           std::to_string(::getpid());
  const std::string front = base + "_front.sock";
  const std::string backend = "unix:" + base + "_b.sock";
  const struct {
    std::string uds_path;
    std::string backend;
    std::string named;  // in the error message
  } cases[] = {
      {front, "127.0.0.1:7000", "127.0.0.1:7000"},
      {front, "unix:", "unix:"},
      {"", backend, "socket path"},
  };
  for (const auto& c : cases) {
    RouterOptions options;
    options.uds_path = c.uds_path;
    options.backends = {backend, c.backend};
    Result<std::unique_ptr<Router>> router = Router::Create(options);
    ASSERT_FALSE(router.ok()) << c.backend;
    EXPECT_EQ(router.status().code(), StatusCode::kInvalidArgument)
        << c.backend;
    EXPECT_NE(router.status().message().find(c.named), std::string::npos)
        << router.status().message();
  }
  EXPECT_FALSE(std::filesystem::exists(front));
}

constexpr int kBackends = 3;

class RouterE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string base =
        "/tmp/mrlq_router_" + std::to_string(::getpid()) + "_" +
        std::to_string(reinterpret_cast<std::uintptr_t>(this) & 0xFFFF);
    router_uds_ = base + "_front.sock";
    for (int i = 0; i < kBackends; ++i) {
      backend_uds_[i] = base + "_b" + std::to_string(i) + ".sock";
      backend_pid_[i] = SpawnBackend(i);
      ASSERT_GT(backend_pid_[i], 0);
    }
    for (int i = 0; i < kBackends; ++i) WaitForBackend(i);
  }

  void TearDown() override {
    router_.reset();
    for (int i = 0; i < kBackends; ++i) KillBackend(i);
    ::unlink(router_uds_.c_str());
    for (int i = 0; i < kBackends; ++i) {
      ::unlink(backend_uds_[i].c_str());
    }
  }

  pid_t SpawnBackend(int i) {
    const std::string uds_flag = "--uds=" + backend_uds_[i];
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execl(MRLQUANT_DAEMON_PATH, "mrlquantd", uds_flag.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);  // exec failed
    }
    return pid;
  }

  void WaitForBackend(int i) {
    for (int attempt = 0; attempt < 200; ++attempt) {
      Result<Client> client = Client::ConnectUnix(backend_uds_[i]);
      if (client.ok()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    FAIL() << "backend " << i << " did not come up on " << backend_uds_[i];
  }

  void KillBackend(int i) {
    if (backend_pid_[i] <= 0) return;
    ::kill(backend_pid_[i], SIGKILL);
    int wstatus = 0;
    ::waitpid(backend_pid_[i], &wstatus, 0);
    backend_pid_[i] = -1;
  }

  void RestartBackend(int i) {
    backend_pid_[i] = SpawnBackend(i);
    ASSERT_GT(backend_pid_[i], 0);
    WaitForBackend(i);
  }

  void StartRouter(RouterOptions options) {
    options.uds_path = router_uds_;
    for (int i = 0; i < kBackends; ++i) {
      options.backends.push_back("unix:" + backend_uds_[i]);
    }
    // Fast health cadence so failure detection and resync happen within
    // test-sized windows.
    options.health_interval_ms = 50;
    options.rpc_timeout_ms = 2000;
    Result<std::unique_ptr<Router>> router = Router::Create(std::move(options));
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    router_ = std::move(router).value();
  }

  Client ConnectRouter() {
    Result<Client> client = Client::ConnectUnix(router_uds_);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  std::string router_uds_;
  std::string backend_uds_[kBackends];
  pid_t backend_pid_[kBackends] = {-1, -1, -1};
  std::unique_ptr<Router> router_;
};

TEST_F(RouterE2eTest, RoutedBasicOpsAndPing) {
  StartRouter(RouterOptions{});
  Client client = ConnectRouter();

  // PING is answered by the router itself.
  ASSERT_TRUE(client.Ping().ok());

  constexpr double kEps = 0.02;
  constexpr std::size_t kN = 60000;
  TenantConfig config;
  config.eps = kEps;
  config.seed = 7;

  // Several tenants, spread over at least two backends. The ring hashes
  // the fixture's socket paths, which embed the pid, so fixed names can all
  // land on one backend (about 1 run in 80 for five names). Candidates
  // t0, t1, ... are taken until five are chosen and two owners are
  // covered; 64 tries all on one of three backends has odds of 3^-63.
  std::vector<std::string> tenants;
  for (int i = 0; i < 64; ++i) {
    tenants.push_back("t" + std::to_string(i));
    const bool covered = std::any_of(
        tenants.begin(), tenants.end(), [&](const std::string& name) {
          return router_->OwnerIndexOf(name) !=
                 router_->OwnerIndexOf(tenants[0]);
        });
    if (tenants.size() >= 5 && covered) break;
  }
  for (const std::string& name : tenants) {
    ASSERT_TRUE(client.CreateSketch(name, config).ok()) << name;
  }
  bool spread = false;
  for (const std::string& name : tenants) {
    if (router_->OwnerIndexOf(name) != router_->OwnerIndexOf(tenants[0])) {
      spread = true;
    }
  }
  EXPECT_TRUE(spread) << "all tenants landed on one backend";

  std::vector<Value> data = UniformStream(kN, 11);
  mrl::Result<std::uint64_t> count =
      client.AddBatch(tenants[0], std::span<const Value>(data));
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value(), kN);

  std::sort(data.begin(), data.end());
  const std::vector<double> phis = {0.1, 0.5, 0.9};
  std::vector<Value> answers;
  ASSERT_TRUE(client.QueryMulti(tenants[0], phis, &answers).ok());
  ASSERT_EQ(answers.size(), phis.size());
  for (std::size_t i = 0; i < phis.size(); ++i) {
    EXPECT_NEAR(RankOf(data, answers[i]), phis[i], kEps) << "phi=" << phis[i];
  }

  // Stats through the router: named hits the owner, empty aggregates.
  mrl::Result<server::StatsReply> stats = client.Stats(tenants[0]);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats.value().tenant_present);
  EXPECT_EQ(stats.value().tenant_count, kN);
  mrl::Result<server::StatsReply> global = client.Stats("");
  ASSERT_TRUE(global.ok());
  EXPECT_EQ(global.value().num_tenants, tenants.size());
  EXPECT_EQ(global.value().total_count, kN);

  // FETCH_SUMMARY forwards and returns a decodable partial summary.
  std::vector<std::uint8_t> blob;
  ASSERT_TRUE(client.FetchSummary(tenants[0], &blob).ok());
  EXPECT_FALSE(blob.empty());

  ASSERT_TRUE(client.Delete(tenants[0]).ok());
  EXPECT_FALSE(client.Query(tenants[0], 0.5).ok());
}

TEST_F(RouterE2eTest, PartitionedTenantFanOutMerge) {
  RouterOptions options;
  options.partitioned = {"wide"};
  StartRouter(std::move(options));
  Client client = ConnectRouter();

  constexpr double kEps = 0.05;
  constexpr std::size_t kN = 90000;
  constexpr std::size_t kBatch = 9000;
  TenantConfig config;
  config.eps = kEps;
  config.seed = 3;
  ASSERT_TRUE(client.CreateSketch("wide", config).ok());

  std::vector<Value> data = UniformStream(kN, 17);
  for (std::size_t i = 0; i < kN; i += kBatch) {
    mrl::Result<std::uint64_t> count = client.AddBatch(
        "wide", std::span<const Value>(data.data() + i, kBatch));
    ASSERT_TRUE(count.ok()) << count.status().ToString();
  }

  // Every backend holds a real partition of the data.
  for (int i = 0; i < kBackends; ++i) {
    Result<Client> direct = Client::ConnectUnix(backend_uds_[i]);
    ASSERT_TRUE(direct.ok());
    mrl::Result<server::StatsReply> stats = direct.value().Stats("wide");
    ASSERT_TRUE(stats.ok());
    EXPECT_TRUE(stats.value().tenant_present) << "backend " << i;
    EXPECT_GT(stats.value().tenant_count, 0u) << "backend " << i;
  }

  // Named stats aggregate to the full stream length across partitions.
  mrl::Result<server::StatsReply> stats = client.Stats("wide");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().tenant_count, kN);

  // Queries fan out FETCH_SUMMARY and merge with the Section 6 rules.
  std::sort(data.begin(), data.end());
  const std::vector<double> phis = {0.05, 0.25, 0.5, 0.75, 0.95};
  std::vector<Value> answers;
  ASSERT_TRUE(client.QueryMulti("wide", phis, &answers).ok());
  ASSERT_EQ(answers.size(), phis.size());
  for (std::size_t i = 0; i < phis.size(); ++i) {
    EXPECT_NEAR(RankOf(data, answers[i]), phis[i], 2 * kEps)
        << "phi=" << phis[i];
  }

  const mrl::Result<double> median = client.Query("wide", 0.5);
  ASSERT_TRUE(median.ok());
  EXPECT_NEAR(RankOf(data, median.value()), 0.5, 2 * kEps);

  // A partitioned tenant has no single checkpoint or partial summary to
  // hand out or install; each backend's partition does.
  std::vector<std::uint8_t> blob;
  EXPECT_EQ(client.FetchSummary("wide", &blob).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.Snapshot("wide", &blob).code(),
            StatusCode::kFailedPrecondition);
  Result<Client> direct = Client::ConnectUnix(backend_uds_[0]);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(direct.value().Snapshot("wide", &blob).ok());
  EXPECT_EQ(client.RestoreTenant("wide", config, blob).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(client.connected());
}

// The acceptance scenario: replication on, SIGKILL the owning backend in
// the middle of the ingest stream, keep writing — the router promotes the
// replica within the health-check window — and final quantiles stay within
// the configured eps of the exact sorted baseline.
TEST_F(RouterE2eTest, FailoverUnderSigkillKeepsAccuracy) {
  RouterOptions options;
  options.replicate = true;
  StartRouter(std::move(options));
  Client client = ConnectRouter();

  constexpr double kEps = 0.02;
  constexpr std::size_t kN = 100000;
  constexpr std::size_t kBatch = 5000;
  TenantConfig config;
  config.eps = kEps;
  config.seed = 19;
  ASSERT_TRUE(client.CreateSketch("t", config).ok());

  const int owner = router_->OwnerIndexOf("t");
  const int replica = router_->ReplicaIndexOf("t");
  ASSERT_GE(replica, 0);
  ASSERT_NE(owner, replica);

  const std::vector<Value> data = UniformStream(kN, 29);
  std::size_t sent = 0;
  for (; sent < kN / 2; sent += kBatch) {
    mrl::Result<std::uint64_t> count = client.AddBatch(
        "t", std::span<const Value>(data.data() + sent, kBatch));
    ASSERT_TRUE(count.ok()) << count.status().ToString();
  }

  // Kill the primary cold: no shutdown handler runs, connections die.
  KillBackend(owner);

  // Keep ingesting. The first write after the kill rides the failover
  // retry inside the router, so the client never sees an error.
  for (; sent < kN; sent += kBatch) {
    mrl::Result<std::uint64_t> count = client.AddBatch(
        "t", std::span<const Value>(data.data() + sent, kBatch));
    ASSERT_TRUE(count.ok()) << "batch at " << sent << ": "
                            << count.status().ToString();
  }

  EXPECT_TRUE(router_->failed_over("t"));

  // The health loop marks the dead backend down within its window.
  for (int attempt = 0; attempt < 100; ++attempt) {
    if (router_->backend_down(owner)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(router_->backend_down(owner));

  // Quantiles served from the replica cover the WHOLE stream (the replica
  // mirrored every acknowledged batch) within the configured eps.
  std::vector<Value> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  const std::vector<double> phis = {0.1, 0.25, 0.5, 0.75, 0.9};
  std::vector<Value> answers;
  ASSERT_TRUE(client.QueryMulti("t", phis, &answers).ok());
  ASSERT_EQ(answers.size(), phis.size());
  for (std::size_t i = 0; i < phis.size(); ++i) {
    EXPECT_NEAR(RankOf(sorted, answers[i]), phis[i], kEps)
        << "phi=" << phis[i];
  }

  // The replica holds every element the client was acknowledged for.
  mrl::Result<server::StatsReply> stats = client.Stats("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().tenant_count, kN);
}

// Replica resync: kill the REPLICA, write through (the mirror misses →
// dirty), restart the replica, let the health thread ship a
// SNAPSHOT→RESTORE, then kill the primary — the freshly resynced replica
// must serve the full stream.
TEST_F(RouterE2eTest, ReplicaResyncThenFailover) {
  RouterOptions options;
  options.replicate = true;
  StartRouter(std::move(options));
  Client client = ConnectRouter();

  constexpr double kEps = 0.02;
  constexpr std::size_t kN = 60000;
  constexpr std::size_t kBatch = 5000;
  TenantConfig config;
  config.eps = kEps;
  config.seed = 23;
  ASSERT_TRUE(client.CreateSketch("r", config).ok());

  const int owner = router_->OwnerIndexOf("r");
  const int replica = router_->ReplicaIndexOf("r");
  ASSERT_GE(replica, 0);

  const std::vector<Value> data = UniformStream(kN, 31);
  std::size_t sent = 0;
  for (; sent < kN / 3; sent += kBatch) {
    ASSERT_TRUE(client
                    .AddBatch("r", std::span<const Value>(data.data() + sent,
                                                          kBatch))
                    .ok());
  }

  // Replica goes away; the next batches miss their mirror.
  KillBackend(replica);
  for (; sent < (2 * kN) / 3; sent += kBatch) {
    ASSERT_TRUE(client
                    .AddBatch("r", std::span<const Value>(data.data() + sent,
                                                          kBatch))
                    .ok());
  }

  // Replica returns empty; the health thread resyncs it from the primary.
  RestartBackend(replica);
  bool resynced = false;
  for (int attempt = 0; attempt < 200 && !resynced; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    Result<Client> direct = Client::ConnectUnix(backend_uds_[replica]);
    if (!direct.ok()) continue;
    mrl::Result<server::StatsReply> stats = direct.value().Stats("r");
    resynced = stats.ok() && stats.value().tenant_present &&
               stats.value().tenant_count >= sent;
  }
  ASSERT_TRUE(resynced) << "replica was not resynced from the primary";

  // Finish the stream (mirrored again), then lose the primary for good.
  for (; sent < kN; sent += kBatch) {
    ASSERT_TRUE(client
                    .AddBatch("r", std::span<const Value>(data.data() + sent,
                                                          kBatch))
                    .ok());
  }
  KillBackend(owner);

  std::vector<Value> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  const std::vector<double> phis = {0.1, 0.5, 0.9};
  std::vector<Value> answers;
  ASSERT_TRUE(client.QueryMulti("r", phis, &answers).ok());
  ASSERT_EQ(answers.size(), phis.size());
  for (std::size_t i = 0; i < answers.size(); ++i) {
    EXPECT_NEAR(RankOf(sorted, answers[i]), phis[i], kEps)
        << "phi=" << phis[i];
  }
  mrl::Result<server::StatsReply> stats = client.Stats("r");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().tenant_count, kN);
}

// A dirty tenant that its owner no longer holds (evicted by LRU, or here
// deleted on the daemon behind the router's back) has nothing to resync
// from: the router drops its state instead of retrying every health tick.
TEST_F(RouterE2eTest, ForgetsDirtyTenantItsOwnerDropped) {
  RouterOptions options;
  options.replicate = true;
  StartRouter(std::move(options));
  Client client = ConnectRouter();
  TenantConfig config;
  config.seed = 41;
  ASSERT_TRUE(client.CreateSketch("gone", config).ok());
  ASSERT_TRUE(router_->tracks_tenant("gone"));
  const int owner = router_->OwnerIndexOf("gone");
  const int replica = router_->ReplicaIndexOf("gone");
  ASSERT_GE(replica, 0);

  // The mirror misses this write, so the replica is dirty.
  KillBackend(replica);
  const std::vector<Value> data = UniformStream(1000, 43);
  ASSERT_TRUE(client.AddBatch("gone", data).ok());

  {
    Result<Client> direct = Client::ConnectUnix(backend_uds_[owner]);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(direct.value().Delete("gone").ok());
  }
  RestartBackend(replica);
  bool forgotten = false;
  for (int attempt = 0; attempt < 200 && !forgotten; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    forgotten = !router_->tracks_tenant("gone");
  }
  EXPECT_TRUE(forgotten) << "router still resyncs a tenant its owner dropped";
}

// One raw round trip: the request frame goes out as is and the whole
// response frame comes back undecoded.
std::vector<std::uint8_t> Exchange(Client& client,
                                   const std::vector<std::uint8_t>& request) {
  std::vector<std::uint8_t> response;
  const Status status = client.ForwardFrame(request, &response);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return response;
}

// The forwarding contract: for a single-owner tenant the router's reply is
// the owning daemon's reply, byte for byte — OK bodies and error replies
// alike. The reference is another daemon of the fleet fed the identical
// request sequence directly, so it holds an identically configured tenant.
// A frame for a partitioned tenant that fails validation is answered by the
// router itself, with the same bytes a daemon answers it with.
TEST_F(RouterE2eTest, SingleOwnerRepliesMatchDirectDaemonByteForByte) {
  RouterOptions options;
  options.partitioned = {"wide"};
  StartRouter(std::move(options));
  Client routed = ConnectRouter();
  const int direct_index = (router_->OwnerIndexOf("t") + 1) % kBackends;
  Result<Client> direct_conn = Client::ConnectUnix(backend_uds_[direct_index]);
  ASSERT_TRUE(direct_conn.ok());
  Client direct = std::move(direct_conn).value();

  TenantConfig config;
  config.eps = 0.05;
  config.seed = 5;
  const std::vector<Value> values = UniformStream(5000, 41);
  std::vector<Value> with_nan = values;
  with_nan[17] = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> phis = {0.1, 0.5, 0.9};

  std::vector<std::vector<std::uint8_t>> requests;
  const auto add = [&](auto&& encode) {
    requests.emplace_back();
    encode(&requests.back());
  };
  using namespace server;  // NOLINT(build/namespaces)
  // Rewrites the config block's kind byte, at `offset` into the payload, to
  // retired kind 2 (KLL) and refreshes the CRC.
  const auto plant_retired_kind = [](std::vector<std::uint8_t>* out,
                                     std::size_t offset) {
    (*out)[kFrameHeaderSize + offset] = 2;
    StoreU32Le(out->data() + 8, Crc32(out->data() + kFrameHeaderSize,
                                      out->size() - kFrameHeaderSize));
  };
  add([&](auto* out) { EncodePing(out); });
  add([&](auto* out) { EncodeCreateSketch("t", config, out); });
  add([&](auto* out) { EncodeCreateSketch("t", config, out); });  // exists
  add([&](auto* out) {
    EncodeCreateSketch("t", config, out);
    plant_retired_kind(out, 3);  // after the u16 name length and "t"
  });
  add([&](auto* out) { EncodeCreateSketch("bad name!", config, out); });
  add([&](auto* out) { EncodeAddBatch("t", values, out); });
  add([&](auto* out) { EncodeAddBatch("t", with_nan, out); });
  add([&](auto* out) { EncodeAddBatch("ghost", values, out); });
  add([&](auto* out) { EncodeQuery("t", 0.5, out); });
  add([&](auto* out) { EncodeQuery("t", 1.5, out); });  // phi out of range
  add([&](auto* out) { EncodeQuery("ghost", 0.5, out); });
  add([&](auto* out) { EncodeQueryMulti("t", phis, out); });
  add([&](auto* out) { EncodeNameRequest(MsgType::kStats, "t", out); });
  add([&](auto* out) { EncodeNameRequest(MsgType::kFetchSummary, "t", out); });
  add([&](auto* out) { EncodeNameRequest(MsgType::kSnapshot, "ghost", out); });
  // A CRC mismatch is answered as an unattributable frame.
  add([&](auto* out) {
    EncodeQuery("t", 0.5, out);
    out->back() ^= 0x01;
  });
  for (const std::vector<std::uint8_t>& request : requests) {
    EXPECT_EQ(Exchange(routed, request), Exchange(direct, request))
        << "request type " << static_cast<int>(request[5]);
  }

  // SNAPSHOT, RESTORE it under a new name, and read that tenant back.
  std::vector<std::uint8_t> snapshot;
  EncodeNameRequest(MsgType::kSnapshot, "t", &snapshot);
  const std::vector<std::uint8_t> blob_frame = Exchange(routed, snapshot);
  ASSERT_EQ(blob_frame, Exchange(direct, snapshot));
  Result<FrameView> frame =
      DecodeFrameBody(blob_frame.data() + 4, blob_frame.size() - 4);
  ASSERT_TRUE(frame.ok());
  Result<ResponseView> response =
      DecodeResponse(frame.value().payload, frame.value().payload_len);
  ASSERT_TRUE(response.ok() && response.value().ok());
  std::vector<std::uint8_t> blob;
  ASSERT_TRUE(DecodeBlobOk(response.value(), MsgType::kSnapshot, &blob).ok());

  requests.clear();
  add([&](auto* out) { EncodeRestore("t2", config, blob, out); });
  add([&](auto* out) {
    EncodeRestore("t3", config, blob, out);
    plant_retired_kind(out, 4);  // after the u16 name length and "t3"
  });
  add([&](auto* out) { EncodeQueryMulti("t2", phis, out); });
  add([&](auto* out) { EncodeNameRequest(MsgType::kDelete, "t", out); });
  add([&](auto* out) { EncodeNameRequest(MsgType::kDelete, "t", out); });
  for (const std::vector<std::uint8_t>& request : requests) {
    EXPECT_EQ(Exchange(routed, request), Exchange(direct, request))
        << "request type " << static_cast<int>(request[5]);
  }

  // Frames for the partitioned tenant that fail validation.
  requests.clear();
  TenantConfig zero_eps = config;
  zero_eps.eps = 0;
  const std::vector<double> nan_phis = {
      0.5, std::numeric_limits<double>::quiet_NaN()};
  add([&](auto* out) { EncodeCreateSketch("wide", zero_eps, out); });
  add([&](auto* out) { EncodeAddBatch("wide", with_nan, out); });
  add([&](auto* out) {
    FrameBuilder frame(MsgType::kAddBatch, out);
    frame.PutName("wide");
    frame.PutU64(2);  // but one value follows
    frame.PutDouble(0.5);
    frame.Finish();
  });
  add([&](auto* out) { EncodeQuery("wide", 1.5, out); });
  add([&](auto* out) { EncodeQueryMulti("wide", nan_phis, out); });
  add([&](auto* out) {
    FrameBuilder frame(MsgType::kPing, out);
    frame.PutName("wide");  // PING carries no payload
    frame.Finish();
  });
  add([&](auto* out) {
    EncodeQuery("wide", 0.5, out);
    out->back() ^= 0x01;  // CRC mismatch
  });
  add([&](auto* out) {
    EncodeNameRequest(MsgType::kStats, "wide", out);
    (*out)[5] = 0x7f;  // unknown type byte
  });
  add([&](auto* out) {
    FrameBuilder frame(MsgType::kRestore, out);
    frame.PutName("wide");
    PutTenantConfig(config, &frame);
    frame.PutU32(8);  // but the blob is truncated to 4 bytes
    frame.PutU32(0);
    frame.Finish();
  });
  for (const std::vector<std::uint8_t>& request : requests) {
    const std::vector<std::uint8_t> reply = Exchange(routed, request);
    EXPECT_EQ(reply, Exchange(direct, request))
        << "partitioned, request type " << static_cast<int>(request[5]);
    // Each is an error reply: none reached the fleet.
    Result<FrameView> reply_frame =
        DecodeFrameBody(reply.data() + 4, reply.size() - 4);
    ASSERT_TRUE(reply_frame.ok());
    Result<ResponseView> reply_view = DecodeResponse(
        reply_frame.value().payload, reply_frame.value().payload_len);
    ASSERT_TRUE(reply_view.ok()) << reply_view.status().ToString();
    EXPECT_FALSE(reply_view.value().ok());
  }
}

// The backend is the one validator of forwarded frames: a NaN batch for a
// replicated tenant is refused by the primary, is never mirrored, and is
// not mistaken for a transport failure.
TEST_F(RouterE2eTest, ReplicatedNanBatchIsRejectedWithoutSideEffects) {
  RouterOptions options;
  options.replicate = true;
  StartRouter(std::move(options));
  Client client = ConnectRouter();
  TenantConfig config;
  config.seed = 13;
  ASSERT_TRUE(client.CreateSketch("n", config).ok());
  std::vector<Value> values = UniformStream(1000, 43);
  ASSERT_TRUE(client.AddBatch("n", values).ok());

  values[500] = std::numeric_limits<double>::quiet_NaN();
  const mrl::Result<std::uint64_t> rejected = client.AddBatch("n", values);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(client.connected());

  for (const int index :
       {router_->OwnerIndexOf("n"), router_->ReplicaIndexOf("n")}) {
    Result<Client> direct = Client::ConnectUnix(backend_uds_[index]);
    ASSERT_TRUE(direct.ok());
    mrl::Result<server::StatsReply> stats = direct.value().Stats("n");
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().tenant_count, 1000u) << "backend " << index;
  }
  EXPECT_FALSE(router_->failed_over("n"));
}

// Entries of a /proc/self directory: threads of this process
// ("/proc/self/task") or its open descriptors ("/proc/self/fd").
std::size_t ProcEntries(const char* dir) {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

// A long-lived router holds bounded resources: serving a connection costs
// no thread, and a closed connection leaves no descriptor behind. After
// 256 connect→PING→close cycles the process's thread and descriptor
// counts return to their pre-loop baseline.
TEST_F(RouterE2eTest, ConnectionCyclesReturnThreadsAndFdsToBaseline) {
  StartRouter(RouterOptions{});
  {
    Client warm = ConnectRouter();
    ASSERT_TRUE(warm.Ping().ok());
  }
  // Let the health thread's first probes pool one connection per backend,
  // so the baseline already holds them.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::size_t base_tasks = ProcEntries("/proc/self/task");
  const std::size_t base_fds = ProcEntries("/proc/self/fd");
  for (int i = 0; i < 256; ++i) {
    Client client = ConnectRouter();
    ASSERT_TRUE(client.Ping().ok()) << "cycle " << i;
  }
  // The shards close their side when they see each EOF; the last few may
  // still be in flight.
  std::size_t tasks = 0;
  std::size_t fds = 0;
  for (int attempt = 0; attempt < 100; ++attempt) {
    tasks = ProcEntries("/proc/self/task");
    fds = ProcEntries("/proc/self/fd");
    if (tasks == base_tasks && fds == base_fds) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(tasks, base_tasks);
  EXPECT_EQ(fds, base_fds);
}

}  // namespace
}  // namespace router
}  // namespace mrl
