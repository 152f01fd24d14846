// End-to-end daemon tests: an in-process QuantileServer on a Unix-domain
// socket driven purely through the client library (src/server/client.h) —
// the same code path tools/mrlquant_client uses. Covers the tenant
// lifecycle over the wire, a multi-threaded ingestion run of >= 10M values
// checked against an exact baseline, and kill + restart mid-stream with
// checkpoint recovery.

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "util/net.h"
#include "util/random.h"

namespace mrl {
namespace server {
namespace {

std::string TempName(const char* tag) {
  std::string path = "/tmp/mrlq_";
  path += tag;
  path += '.';
  path += std::to_string(::getpid());
  return path;
}

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

class ServerE2eTest : public ::testing::Test {
 protected:
  std::unique_ptr<QuantileServer> StartServer(ServerOptions options) {
    options.uds_path = uds_path_;
    Result<std::unique_ptr<QuantileServer>> server =
        QuantileServer::Create(std::move(options));
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return server.ok() ? std::move(server).value() : nullptr;
  }

  Client Connect() {
    Result<Client> client = Client::ConnectUnix(uds_path_);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  void TearDown() override {
    std::remove(uds_path_.c_str());
    if (!checkpoint_path_.empty()) std::remove(checkpoint_path_.c_str());
  }

  std::string uds_path_ = TempName("e2e") + ".sock";
  std::string checkpoint_path_;
};

TEST_F(ServerE2eTest, TenantLifecycleOverTheWire) {
  std::unique_ptr<QuantileServer> server = StartServer(ServerOptions{});
  ASSERT_NE(server, nullptr);
  Client client = Connect();
  ASSERT_TRUE(client.connected());

  // Errors before the tenant exists.
  EXPECT_EQ(client.Query("t", 0.5).status().code(), StatusCode::kNotFound);

  TenantConfig config;
  ASSERT_TRUE(client.CreateSketch("t", config).ok());
  EXPECT_EQ(client.CreateSketch("t", config).code(),
            StatusCode::kFailedPrecondition);
  // The error response must leave the connection usable.
  ASSERT_TRUE(client.connected());

  Result<std::uint64_t> count =
      client.AddBatch("t", std::vector<Value>{3.0, 1.0, 2.0});
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value(), 3u);

  Result<double> median = client.Query("t", 0.5);
  ASSERT_TRUE(median.ok());
  EXPECT_EQ(median.value(), 2.0);

  std::vector<Value> answers;
  ASSERT_TRUE(
      client.QueryMulti("t", std::vector<double>{0.5, 1.0}, &answers).ok());
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[0], 2.0);
  EXPECT_EQ(answers[1], 3.0);

  Result<StatsReply> stats = client.Stats("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().num_tenants, 1u);
  EXPECT_EQ(stats.value().total_count, 3u);
  EXPECT_TRUE(stats.value().tenant_present);
  EXPECT_EQ(stats.value().tenant_count, 3u);

  std::vector<std::uint8_t> blob;
  ASSERT_TRUE(client.Snapshot("t", &blob).ok());
  EXPECT_FALSE(blob.empty());

  ASSERT_TRUE(client.Delete("t").ok());
  EXPECT_EQ(client.Delete("t").code(), StatusCode::kNotFound);
  EXPECT_EQ(client.Query("t", 0.5).status().code(), StatusCode::kNotFound);

  // Invalid requests are rejected server-side without dropping the link.
  EXPECT_EQ(client.Query("t", 1.5).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(client.connected());

  server->Stop();
}

TEST_F(ServerE2eTest, MultiThreadedIngestionMeetsEpsBound) {
  ServerOptions options;
  options.num_shards = 4;  // connections migrate to the tenant's home shard
  std::unique_ptr<QuantileServer> server = StartServer(std::move(options));
  ASSERT_NE(server, nullptr);

  constexpr int kThreads = 4;
  constexpr std::size_t kPerThread = 2'500'000;  // 10M total
  constexpr std::size_t kBatch = 65536;
  constexpr double kEps = 0.01;

  TenantConfig config;
  config.eps = kEps;
  {
    Client admin = Connect();
    ASSERT_TRUE(admin.CreateSketch("latency", config).ok());
  }

  // Pre-generate every thread's data so the exact baseline sees the same
  // multiset the server ingests.
  std::vector<std::vector<Value>> data;
  data.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    data.push_back(UniformStream(kPerThread, 1000 + t));
  }

  std::vector<std::thread> pushers;
  std::vector<int> failures(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    pushers.emplace_back([this, &data, &failures, t] {
      Result<Client> client = Client::ConnectUnix(uds_path_);
      if (!client.ok()) {
        failures[t] = 1;
        return;
      }
      const std::vector<Value>& mine = data[static_cast<std::size_t>(t)];
      for (std::size_t i = 0; i < mine.size(); i += kBatch) {
        const std::size_t n = std::min(mine.size() - i, std::size_t{kBatch});
        Result<std::uint64_t> count = client.value().AddBatch(
            "latency", std::span<const Value>(mine.data() + i, n));
        if (!count.ok()) {
          failures[t] = 1;
          return;
        }
      }
    });
  }
  for (std::thread& p : pushers) p.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "pusher " << t << " failed";
  }

  Client client = Connect();
  Result<StatsReply> stats = client.Stats("latency");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().tenant_count, kThreads * kPerThread);

  std::vector<Value> sorted;
  sorted.reserve(kThreads * kPerThread);
  for (const std::vector<Value>& chunk : data) {
    sorted.insert(sorted.end(), chunk.begin(), chunk.end());
  }
  std::sort(sorted.begin(), sorted.end());

  const std::vector<double> phis = {0.001, 0.01, 0.1, 0.25, 0.5,
                                    0.75,  0.9,  0.99, 0.999};
  std::vector<Value> answers;
  ASSERT_TRUE(client.QueryMulti("latency", phis, &answers).ok());
  ASSERT_EQ(answers.size(), phis.size());
  for (std::size_t i = 0; i < phis.size(); ++i) {
    EXPECT_NEAR(RankOf(sorted, answers[i]), phis[i], kEps)
        << "phi=" << phis[i];
  }

  server->Stop();
}

TEST_F(ServerE2eTest, KillAndRestartRecoversFromCheckpoint) {
  checkpoint_path_ = TempName("e2e_ckpt");
  ServerOptions options;
  options.registry.checkpoint_path = checkpoint_path_;
  options.checkpoint_on_stop = false;  // Stop() models a crash

  constexpr std::size_t kFirstHalf = 120000;
  constexpr std::size_t kSecondHalf = 80000;
  constexpr std::size_t kBatch = 10000;
  const std::vector<Value> values =
      UniformStream(kFirstHalf + kSecondHalf, 77);

  {
    std::unique_ptr<QuantileServer> server = StartServer(options);
    ASSERT_NE(server, nullptr);
    Client client = Connect();
    ASSERT_TRUE(client.CreateSketch("t", TenantConfig{}).ok());
    for (std::size_t i = 0; i < kFirstHalf; i += kBatch) {
      ASSERT_TRUE(client
                      .AddBatch("t", std::span<const Value>(
                                         values.data() + i, kBatch))
                      .ok());
    }
    // Durable point: SNAPSHOT persists the registry checkpoint.
    std::vector<std::uint8_t> blob;
    ASSERT_TRUE(client.Snapshot("t", &blob).ok());

    // More ingestion that the "crash" will lose.
    ASSERT_TRUE(client
                    .AddBatch("t", std::span<const Value>(
                                       values.data() + kFirstHalf, kBatch))
                    .ok());
    server->Stop();
  }

  {
    std::unique_ptr<QuantileServer> server = StartServer(options);
    ASSERT_NE(server, nullptr);
    Client client = Connect();

    // Recovery resumes from the snapshot point, not the crash point.
    Result<StatsReply> stats = client.Stats("t");
    ASSERT_TRUE(stats.ok());
    EXPECT_TRUE(stats.value().tenant_present);
    EXPECT_EQ(stats.value().tenant_count, kFirstHalf);

    // The client replays the lost tail and continues the stream.
    for (std::size_t i = kFirstHalf; i < values.size(); i += kBatch) {
      ASSERT_TRUE(client
                      .AddBatch("t", std::span<const Value>(
                                         values.data() + i, kBatch))
                      .ok());
    }
    stats = client.Stats("t");
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().tenant_count, values.size());

    std::vector<Value> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (double phi : {0.1, 0.5, 0.9}) {
      Result<double> answer = client.Query("t", phi);
      ASSERT_TRUE(answer.ok());
      EXPECT_NEAR(RankOf(sorted, answer.value()), phi, 0.01) << "phi=" << phi;
    }
    server->Stop();
  }
}

TEST_F(ServerE2eTest, ExistsErrorTextReachesClient) {
  std::unique_ptr<QuantileServer> server = StartServer(ServerOptions{});
  ASSERT_NE(server, nullptr);
  Client client = Connect();

  // Re-creating an existing tenant, under any config: the server's exact
  // error text must round-trip to the caller.
  ASSERT_TRUE(client.CreateSketch("t", TenantConfig{}).ok());
  TenantConfig other;
  other.eps = 0.05;
  const Status exists = client.CreateSketch("t", other);
  EXPECT_EQ(exists.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(exists.message(), "tenant already exists");

  // The error response must leave the connection usable.
  ASSERT_TRUE(client.AddBatch("t", std::vector<Value>{1.0}).ok());
  server->Stop();
}

TEST_F(ServerE2eTest, TenantSurvivesDaemonSigkill) {
  checkpoint_path_ = TempName("e2e_sigkill_ckpt");
  const std::string uds_flag = "--uds=" + uds_path_;
  const std::string ckpt_flag = "--checkpoint=" + checkpoint_path_;

  // Launches the real daemon binary — the process a SIGKILL can reach.
  const auto spawn_daemon = [&]() -> pid_t {
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execl(MRLQUANT_DAEMON_PATH, "mrlquantd", uds_flag.c_str(),
              ckpt_flag.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);  // exec failed
    }
    return pid;
  };
  const auto wait_for_daemon = [&]() -> Client {
    for (int attempt = 0; attempt < 200; ++attempt) {
      Result<Client> client = Client::ConnectUnix(uds_path_);
      if (client.ok()) return std::move(client).value();
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    ADD_FAILURE() << "daemon did not come up on " << uds_path_;
    return std::move(Client::ConnectUnix(uds_path_)).value();
  };

  constexpr std::size_t kFirstHalf = 60000;
  constexpr std::size_t kSecondHalf = 40000;
  constexpr std::size_t kBatch = 10000;
  const std::vector<Value> values =
      UniformStream(kFirstHalf + kSecondHalf, 123);

  pid_t pid = spawn_daemon();
  ASSERT_GT(pid, 0);
  {
    Client client = wait_for_daemon();
    TenantConfig config;
    config.eps = 0.01;
    config.seed = 9;
    ASSERT_TRUE(client.CreateSketch("k", config).ok());
    for (std::size_t i = 0; i < kFirstHalf; i += kBatch) {
      ASSERT_TRUE(client
                      .AddBatch("k", std::span<const Value>(
                                         values.data() + i, kBatch))
                      .ok());
    }
    // Durable point, then a real SIGKILL: no shutdown path runs at all.
    std::vector<std::uint8_t> blob;
    ASSERT_TRUE(client.Snapshot("k", &blob).ok());
    ASSERT_TRUE(client
                    .AddBatch("k", std::span<const Value>(
                                       values.data() + kFirstHalf, kBatch))
                    .ok());
  }
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  pid = spawn_daemon();
  ASSERT_GT(pid, 0);
  {
    Client client = wait_for_daemon();
    Result<StatsReply> stats = client.Stats("k");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_TRUE(stats.value().tenant_present);
    EXPECT_EQ(stats.value().tenant_count, kFirstHalf);

    // Replay the lost tail and finish the stream on the recovered tenant.
    for (std::size_t i = kFirstHalf; i < values.size(); i += kBatch) {
      ASSERT_TRUE(client
                      .AddBatch("k", std::span<const Value>(
                                         values.data() + i, kBatch))
                      .ok());
    }
    std::vector<Value> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (double phi : {0.1, 0.5, 0.9}) {
      Result<double> answer = client.Query("k", phi);
      ASSERT_TRUE(answer.ok());
      EXPECT_NEAR(RankOf(sorted, answer.value()), phi, 0.01) << "phi=" << phi;
    }
  }
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
}

// SIGKILL + recovery with the sharded registry layout: tenants hash into
// four partitions, so the checkpoint writer walks all of them and
// recovery re-hashes the flat on-disk list back into partitions. Each
// tenant also lives on a different shard, so the pre-kill ingestion
// exercises cross-shard connection migration too.
TEST_F(ServerE2eTest, ShardedRegistrySurvivesDaemonSigkill) {
  checkpoint_path_ = TempName("e2e_shard_ckpt");
  const std::string uds_flag = "--uds=" + uds_path_;
  const std::string ckpt_flag = "--checkpoint=" + checkpoint_path_;

  const auto spawn_daemon = [&]() -> pid_t {
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execl(MRLQUANT_DAEMON_PATH, "mrlquantd", uds_flag.c_str(),
              ckpt_flag.c_str(), "--shards=4", static_cast<char*>(nullptr));
      ::_exit(127);  // exec failed
    }
    return pid;
  };
  const auto wait_for_daemon = [&]() -> Client {
    for (int attempt = 0; attempt < 200; ++attempt) {
      Result<Client> client = Client::ConnectUnix(uds_path_);
      if (client.ok()) return std::move(client).value();
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    ADD_FAILURE() << "daemon did not come up on " << uds_path_;
    return std::move(Client::ConnectUnix(uds_path_)).value();
  };

  constexpr int kTenants = 8;
  constexpr std::size_t kPerTenant = 20000;
  const std::vector<Value> values = UniformStream(kPerTenant, 321);

  pid_t pid = spawn_daemon();
  ASSERT_GT(pid, 0);
  {
    // One connection per tenant: each migrates to its tenant's home shard
    // on the first frame.
    std::vector<Client> clients;
    for (int t = 0; t < kTenants; ++t) {
      Client client = t == 0 ? wait_for_daemon() : Connect();
      const std::string name = "shard_t" + std::to_string(t);
      ASSERT_TRUE(client.CreateSketch(name, TenantConfig{}).ok());
      ASSERT_TRUE(client.AddBatch(name, values).ok());
      clients.push_back(std::move(client));
    }
    // Durable point: any SNAPSHOT persists the whole registry.
    std::vector<std::uint8_t> blob;
    ASSERT_TRUE(clients[0].Snapshot("shard_t0", &blob).ok());
    // Post-snapshot ingestion the SIGKILL must lose.
    ASSERT_TRUE(clients[1].AddBatch("shard_t1", values).ok());
  }
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  pid = spawn_daemon();
  ASSERT_GT(pid, 0);
  {
    Client client = wait_for_daemon();
    for (int t = 0; t < kTenants; ++t) {
      const std::string name = "shard_t" + std::to_string(t);
      Result<StatsReply> stats = client.Stats(name);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_TRUE(stats.value().tenant_present) << name;
      // Every tenant recovers to the snapshot point — including the
      // post-snapshot batch on shard_t1 being lost.
      EXPECT_EQ(stats.value().tenant_count, kPerTenant) << name;
      EXPECT_TRUE(client.Query(name, 0.5).ok()) << name;
    }
    Result<StatsReply> global = client.Stats("");
    ASSERT_TRUE(global.ok());
    EXPECT_EQ(global.value().num_tenants, static_cast<std::uint64_t>(kTenants));
  }
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
}

// C10k: 10,000 concurrent connections against the real daemon binary —
// open them all, let them idle (shards multiplex idle connections for
// free), then a burst where every connection does one STATS round trip.
// The daemon runs in its own process so each side spends its own
// RLIMIT_NOFILE budget; the test raises its soft limit and skips (with a
// message) where the hard limit cannot cover the fan-out.
TEST_F(ServerE2eTest, TenThousandConnectionsOpenIdleBurst) {
  constexpr int kConns = 10000;

  rlimit nofile{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &nofile), 0);
  const rlim_t needed = kConns + 512;  // sockets + gtest/runtime slack
  if (nofile.rlim_max < needed) {
    GTEST_SKIP() << "RLIMIT_NOFILE hard limit " << nofile.rlim_max
                 << " cannot cover " << kConns << " connections";
  }
  if (nofile.rlim_cur < needed) {
    rlimit raised = nofile;
    raised.rlim_cur = needed;
    if (::setrlimit(RLIMIT_NOFILE, &raised) != 0) {
      GTEST_SKIP() << "cannot raise RLIMIT_NOFILE to " << needed << ": "
                   << std::strerror(errno);
    }
  }

  const std::string uds_flag = "--uds=" + uds_path_;
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execl(MRLQUANT_DAEMON_PATH, "mrlquantd", uds_flag.c_str(), "--shards=4",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ASSERT_GT(pid, 0);
  {
    bool up = false;
    for (int attempt = 0; attempt < 200 && !up; ++attempt) {
      up = Client::ConnectUnix(uds_path_).ok();
      if (!up) std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    ASSERT_TRUE(up) << "daemon did not come up on " << uds_path_;
  }

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, uds_path_.c_str(), uds_path_.size() + 1);

  // Open phase. Connect can transiently fail while the acceptor drains
  // the (somaxconn-bounded) backlog; retry with a short pause.
  std::vector<int> fds;
  fds.reserve(kConns);
  for (int i = 0; i < kConns; ++i) {
    int fd = -1;
    for (int attempt = 0; attempt < 100; ++attempt) {
      fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      ASSERT_GE(fd, 0) << std::strerror(errno);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        break;
      }
      ::close(fd);
      fd = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(fd, 0) << "connection " << i << " never connected";
    fds.push_back(fd);
  }

  // Idle phase: nothing to assert beyond the daemon staying alive — the
  // event loops hold 10k quiescent connections with zero wakeups.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(::waitpid(pid, nullptr, WNOHANG), 0) << "daemon died while idle";

  // Burst phase: every connection sends one global-STATS frame, then all
  // responses are collected — 10k in-flight requests across 4 shards.
  std::vector<std::uint8_t> frame;
  EncodeNameRequest(MsgType::kStats, "", &frame);
  for (int i = 0; i < kConns; ++i) {
    ASSERT_EQ(net::SendAll(fds[static_cast<std::size_t>(i)], frame.data(),
                           frame.size()),
              net::IoOutcome::kOk)
        << "send on connection " << i;
  }
  int answered = 0;
  std::vector<std::uint8_t> body;
  for (int i = 0; i < kConns; ++i) {
    const int fd = fds[static_cast<std::size_t>(i)];
    std::uint8_t prefix[4];
    ASSERT_EQ(net::RecvAll(fd, prefix, sizeof(prefix)), net::IoOutcome::kOk)
        << "conn " << i;
    const std::uint32_t body_len =
        static_cast<std::uint32_t>(prefix[0]) |
        (static_cast<std::uint32_t>(prefix[1]) << 8) |
        (static_cast<std::uint32_t>(prefix[2]) << 16) |
        (static_cast<std::uint32_t>(prefix[3]) << 24);
    ASSERT_LE(body_len, kMaxPayload + kFrameHeaderSize - 4);
    body.resize(body_len);
    ASSERT_EQ(net::RecvAll(fd, body.data(), body.size()), net::IoOutcome::kOk)
        << "conn " << i;
    Result<FrameView> decoded = DecodeFrameBody(body.data(), body.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    Result<ResponseView> view = DecodeResponse(decoded.value().payload,
                                               decoded.value().payload_len);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(view.value().code, StatusCode::kOk);
    ++answered;
  }
  EXPECT_EQ(answered, kConns);

  for (const int fd : fds) ::close(fd);
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
}

// Runs the binary at `path` with `args` and returns its exit code: -1 when
// it did not exit normally, or was still running after 10 s (then it is
// killed).
int RunBinary(const char* path, const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(path));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(path, argv.data());
    ::_exit(127);  // exec failed
  }
  if (pid < 0) return -1;
  int wstatus = 0;
  pid_t waited = 0;
  for (int attempt = 0; attempt < 1000 && waited == 0; ++attempt) {
    waited = ::waitpid(pid, &wstatus, WNOHANG);
    if (waited == 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (waited == 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &wstatus, 0);
    return -1;
  }
  if (waited != pid || !WIFEXITED(wstatus)) return -1;
  return WEXITSTATUS(wstatus);
}

int RunClient(const std::vector<std::string>& args) {
  return RunBinary(MRLQUANT_CLIENT_PATH, args);
}

// User plus system CPU time of process `pid` in seconds, from
// /proc/<pid>/stat; negative when it cannot be read.
double ProcessCpuSeconds(pid_t pid) {
  std::FILE* f =
      std::fopen(("/proc/" + std::to_string(pid) + "/stat").c_str(), "r");
  if (f == nullptr) return -1;
  char line[1024];
  const bool read = std::fgets(line, sizeof(line), f) != nullptr;
  std::fclose(f);
  if (!read) return -1;
  // Fields after the parenthesized command name, which may hold spaces:
  // state is field 3, utime and stime are fields 14 and 15.
  const char* rest = std::strrchr(line, ')');
  if (rest == nullptr) return -1;
  unsigned long utime = 0, stime = 0;
  if (std::sscanf(rest + 1,
                  " %*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %lu %lu",
                  &utime, &stime) != 2) {
    return -1;
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// A daemon out of file descriptors sheds the connections it cannot hold
// instead of spinning on its readable listener, and serves again once
// clients go away. The daemon runs with RLIMIT_NOFILE 24, so most of 30
// clients cannot be accepted.
TEST_F(ServerE2eTest, AcceptorIdlesWhenOutOfDescriptors) {
  const std::string uds_flag = "--uds=" + uds_path_;
  const pid_t pid = ::fork();
  if (pid == 0) {
    const rlimit nofile{24, 24};
    if (::setrlimit(RLIMIT_NOFILE, &nofile) != 0) ::_exit(126);
    ::execl(MRLQUANT_DAEMON_PATH, "mrlquantd", uds_flag.c_str(), "--shards=1",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ASSERT_GT(pid, 0);
  const auto stop_daemon = [pid] {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  };
  const auto wait_for_ping = [&]() {
    for (int attempt = 0; attempt < 200; ++attempt) {
      Result<Client> client = Client::ConnectUnix(uds_path_, 1000);
      if (client.ok() && client.value().SetIoTimeout(1000).ok() &&
          client.value().Ping().ok()) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return false;
  };
  if (!wait_for_ping()) {
    stop_daemon();
    FAIL() << "daemon did not come up on " << uds_path_;
  }

  std::vector<Client> clients;
  for (int i = 0; i < 30; ++i) {
    Result<Client> client = Client::ConnectUnix(uds_path_, 1000);
    if (!client.ok()) break;
    clients.push_back(std::move(client).value());
  }
  EXPECT_EQ(clients.size(), 30u);

  const double cpu_before = ProcessCpuSeconds(pid);
  std::this_thread::sleep_for(std::chrono::seconds(2));
  const double cpu_after = ProcessCpuSeconds(pid);
  ASSERT_GE(cpu_before, 0);
  ASSERT_GE(cpu_after, 0);
  EXPECT_LT(cpu_after - cpu_before, 0.2) << "acceptor spins at EMFILE";

  // The accepted clients are served; the shed ones were closed.
  int served = 0;
  for (Client& client : clients) {
    if (client.SetIoTimeout(1000).ok() && client.Ping().ok()) ++served;
  }
  EXPECT_GT(served, 0);
  EXPECT_LT(served, 30);

  clients.clear();
  EXPECT_TRUE(wait_for_ping()) << "daemon stopped serving after EMFILE";
  ASSERT_EQ(::waitpid(pid, nullptr, WNOHANG), 0) << "daemon died";
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  ASSERT_EQ(::waitpid(pid, nullptr, 0), pid);
}

// An out-of-range --max-tenants is a usage error like every other daemon
// flag: exit code 2 with a message, not an abort in the registry.
TEST_F(ServerE2eTest, DaemonRejectsZeroMaxTenants) {
  EXPECT_EQ(RunBinary(MRLQUANT_DAEMON_PATH,
                      {"--uds=" + uds_path_, "--max-tenants=0"}),
            2);
}

// Unix-domain sockets are the one transport: --port and --host are
// unknown flags, and so usage errors (exit 2), for all three binaries.
TEST_F(ServerE2eTest, TransportFlagsOtherThanUdsAreUsageErrors) {
  std::unique_ptr<QuantileServer> server = StartServer(ServerOptions{});
  ASSERT_NE(server, nullptr);
  const std::string uds_flag = "--uds=" + uds_path_;
  const std::string spare_uds_flag = "--uds=" + uds_path_ + ".spare";
  const std::string backends_flag = "--backends=unix:" + uds_path_;
  for (const char* flag : {"--port=7000", "--port=0", "--host=127.0.0.1"}) {
    EXPECT_EQ(RunClient({uds_flag, flag, "ping"}), 2) << flag;
    EXPECT_EQ(RunClient({flag, "ping"}), 2) << flag;
    EXPECT_EQ(RunBinary(MRLQUANT_DAEMON_PATH, {spare_uds_flag, flag}), 2)
        << flag;
    EXPECT_EQ(RunBinary(MRLQUANT_ROUTER_PATH,
                        {spare_uds_flag, backends_flag, flag}),
              2)
        << flag;
  }
  EXPECT_EQ(RunClient({uds_flag, "ping"}), 0);
  server->Stop();
  std::remove((uds_path_ + ".spare").c_str());
}

// Malformed or out-of-range client flags are usage errors (exit 2), never
// a silently different endpoint, an unbounded ping or a stray value.
TEST_F(ServerE2eTest, ClientRejectsBadNumericFlags) {
  std::unique_ptr<QuantileServer> server = StartServer(ServerOptions{});
  ASSERT_NE(server, nullptr);
  const std::string uds_flag = "--uds=" + uds_path_;

  EXPECT_EQ(RunClient({uds_flag, "--timeout-ms=abc", "ping"}), 2);
  EXPECT_EQ(RunClient({uds_flag, "--timeout-ms=-1", "ping"}), 2);
  EXPECT_EQ(RunClient({uds_flag, "ping"}), 0);

  Client client = Connect();
  ASSERT_TRUE(client.CreateSketch("t", TenantConfig{}).ok());
  EXPECT_EQ(RunClient({uds_flag, "add", "t", ""}), 2);
  EXPECT_EQ(RunClient({uds_flag, "create", "s", "--seed=12x"}), 2);
  EXPECT_EQ(RunClient({uds_flag, "create", "s", "--seed=-1"}), 2);
  EXPECT_EQ(RunClient({uds_flag, "create", "s", "--eps="}), 2);
  Result<StatsReply> stats = client.Stats("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().tenant_count, 0u);
  EXPECT_FALSE(client.Stats("s").value().tenant_present);

  EXPECT_EQ(RunClient({uds_flag, "add", "t", "1.5", "2"}), 0);
  EXPECT_EQ(client.Stats("t").value().tenant_count, 2u);
  server->Stop();
}

TEST_F(ServerE2eTest, ConnectionSurvivesMalformedFrame) {
  std::unique_ptr<QuantileServer> server = StartServer(ServerOptions{});
  ASSERT_NE(server, nullptr);
  Client client = Connect();
  ASSERT_TRUE(client.CreateSketch("t", TenantConfig{}).ok());

  // A second client pushing garbage must not disturb the first connection.
  {
    Result<Client> attacker = Client::ConnectUnix(uds_path_);
    ASSERT_TRUE(attacker.ok());
    // (The client API only emits valid frames; the decoder fuzz harness
    // covers malformed bytes. Here we just verify an abrupt disconnect.)
  }

  ASSERT_TRUE(client.AddBatch("t", std::vector<Value>{1.0}).ok());
  Result<double> answer = client.Query("t", 1.0);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.value(), 1.0);
  server->Stop();
}

}  // namespace
}  // namespace server
}  // namespace mrl
