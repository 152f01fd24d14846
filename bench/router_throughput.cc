// Distributed-tier throughput: an in-process Router fronting three
// in-process QuantileServer backends over Unix-domain sockets, driven
// through the same client library as server_throughput — the full routed
// path (client encode, the router relaying the frame bytes to a backend
// on a pooled connection, response relay).
//
// Reported rows (values/s unless noted):
//   router_add_batch_direct      baseline: one backend, no router
//   router_add_batch_routed      routed to the tenant's ring owner
//   router_add_batch_replicated  routed + mirrored to the ring replica
//   router_add_batch_partitioned batch split across all three backends
//   router_query_latency_us      forwarded QUERY round trip, mean us
//   router_fanout_query_latency_us  partitioned QUERY: FETCH_SUMMARY
//                                fan-out + Section 6 merge, mean us
//   router_overhead_ratio        routed / direct (x; lower is better)

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_reporter.h"
#include "router/router.h"
#include "server/client.h"
#include "server/server.h"
#include "util/random.h"
#include "util/types.h"

namespace mrl {
namespace {

using router::Router;
using router::RouterOptions;
using server::Client;
using server::QuantileServer;
using server::ServerOptions;
using server::TenantConfig;

constexpr std::size_t kBatch = 65536;
constexpr std::size_t kStream = std::size_t{2} << 20;

std::vector<Value> UniformStream(std::size_t n, std::uint64_t seed) {
  Random rng(seed);
  std::vector<Value> values(n);
  for (Value& v : values) v = rng.UniformDouble();
  return values;
}

struct Backend {
  std::unique_ptr<QuantileServer> server;
  std::string uds_path;
};

Backend StartBackend(const char* tag) {
  Backend b;
  b.uds_path = "/tmp/mrlq_rbench." +
               std::to_string(static_cast<long>(::getpid())) + "." + tag +
               ".sock";
  ServerOptions options;
  options.uds_path = b.uds_path;
  options.num_shards = 1;
  Result<std::unique_ptr<QuantileServer>> server =
      QuantileServer::Create(std::move(options));
  if (!server.ok()) {
    std::fprintf(stderr, "backend start failed: %s\n",
                 server.status().ToString().c_str());
    std::exit(1);
  }
  b.server = std::move(server).value();
  return b;
}

/// Pushes `values` serially in kBatch chunks; returns values/s.
double PushRate(Client* client, const char* tenant,
                const std::vector<Value>& values) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < values.size(); i += kBatch) {
    const std::size_t n = std::min(values.size() - i, kBatch);
    Result<std::uint64_t> count = client->AddBatch(
        tenant, std::span<const Value>(values.data() + i, n));
    if (!count.ok()) {
      std::fprintf(stderr, "ADD_BATCH failed: %s\n",
                   count.status().ToString().c_str());
      std::exit(1);
    }
  }
  const auto end = std::chrono::steady_clock::now();
  return static_cast<double>(values.size()) /
         std::chrono::duration<double>(end - start).count();
}

double QueryLatencyUs(Client* client, const char* tenant, int queries) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < queries; ++i) {
    const double phi = 0.001 + 0.998 * (static_cast<double>(i) / queries);
    if (!client->Query(tenant, phi).ok()) {
      std::fprintf(stderr, "QUERY failed\n");
      std::exit(1);
    }
  }
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(end - start).count() /
         queries;
}

int Run() {
  bench::BenchReporter reporter("router_throughput");

  Backend b0 = StartBackend("b0");
  Backend b1 = StartBackend("b1");
  Backend b2 = StartBackend("b2");

  const std::string router_uds =
      "/tmp/mrlq_rbench." + std::to_string(static_cast<long>(::getpid())) +
      ".front.sock";
  RouterOptions options;
  options.uds_path = router_uds;
  options.backends = {"unix:" + b0.uds_path, "unix:" + b1.uds_path,
                      "unix:" + b2.uds_path};
  options.replicate = false;
  options.partitioned = {"part"};
  Result<std::unique_ptr<Router>> created = Router::Create(options);
  if (!created.ok()) {
    std::fprintf(stderr, "router start failed: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Router> front = std::move(created).value();

  const std::vector<Value> warmup = UniformStream(std::size_t{1} << 20, 1);
  const std::vector<Value> data = UniformStream(kStream, 2);
  TenantConfig config;

  // --- Baseline: the same client loop straight at one backend. ----------
  double direct = 0;
  {
    Result<Client> client = Client::ConnectUnix(b0.uds_path);
    if (!client.ok()) return 1;
    if (!client.value().CreateSketch("direct", config).ok()) return 1;
    PushRate(&client.value(), "direct", warmup);
    direct = PushRate(&client.value(), "direct", data);
    std::printf("router_add_batch_direct: %.3g values/s\n", direct);
    reporter.ReportValue("router_add_batch_direct", direct, "values/s");
  }

  // --- Routed to the ring owner. ----------------------------------------
  double routed = 0;
  {
    Result<Client> client = Client::ConnectUnix(router_uds);
    if (!client.ok()) return 1;
    if (!client.value().CreateSketch("routed", config).ok()) return 1;
    PushRate(&client.value(), "routed", warmup);
    routed = PushRate(&client.value(), "routed", data);
    std::printf("router_add_batch_routed: %.3g values/s\n", routed);
    reporter.ReportValue("router_add_batch_routed", routed, "values/s");

    const double query_us = QueryLatencyUs(&client.value(), "routed", 2000);
    std::printf("router_query_latency_us: %.3g us\n", query_us);
    reporter.ReportValue("router_query_latency_us", query_us, "us");
  }

  // --- Partitioned tenant: every batch split across all three backends. -
  {
    Result<Client> client = Client::ConnectUnix(router_uds);
    if (!client.ok()) return 1;
    if (!client.value().CreateSketch("part", config).ok()) return 1;
    PushRate(&client.value(), "part", warmup);
    const double rate = PushRate(&client.value(), "part", data);
    std::printf("router_add_batch_partitioned: %.3g values/s\n", rate);
    reporter.ReportValue("router_add_batch_partitioned", rate, "values/s");

    // Fan-out query: FETCH_SUMMARY from every backend + Section 6 merge.
    const double fanout_us = QueryLatencyUs(&client.value(), "part", 200);
    std::printf("router_fanout_query_latency_us: %.3g us\n", fanout_us);
    reporter.ReportValue("router_fanout_query_latency_us", fanout_us, "us");
  }

  // --- Replicated writes: mirrored to the ring replica (2x RPC volume). -
  front->Stop();
  front.reset();
  options.replicate = true;
  options.partitioned.clear();
  created = Router::Create(options);
  if (!created.ok()) return 1;
  front = std::move(created).value();
  {
    Result<Client> client = Client::ConnectUnix(router_uds);
    if (!client.ok()) return 1;
    if (!client.value().CreateSketch("mirrored", config).ok()) return 1;
    PushRate(&client.value(), "mirrored", warmup);
    const double rate = PushRate(&client.value(), "mirrored", data);
    std::printf("router_add_batch_replicated: %.3g values/s\n", rate);
    reporter.ReportValue("router_add_batch_replicated", rate, "values/s");
  }

  std::printf("router_overhead_ratio: %.2fx\n", direct / routed);
  reporter.ReportValue("router_overhead_ratio", direct / routed, "x");

  front->Stop();
  front.reset();
  b0.server->Stop();
  b1.server->Stop();
  b2.server->Stop();
  std::remove(router_uds.c_str());
  std::remove(b0.uds_path.c_str());
  std::remove(b1.uds_path.c_str());
  std::remove(b2.uds_path.c_str());
  return 0;
}

}  // namespace
}  // namespace mrl

int main() { return mrl::Run(); }
