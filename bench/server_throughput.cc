// End-to-end daemon throughput: an in-process QuantileServer on a
// Unix-domain socket, driven through the client library — the full wire
// path (encode, syscalls, frame decode, shard event loop, registry,
// sketch ingestion).
//
// Also enforces the PR's zero-allocation claim for the steady-state shard
// ingest path: after warmup, a global operator new hook counts heap
// allocations across client encode, shard readv/decode, registry lookup,
// sketch ingestion and response writev for a window of pipelined frames
// and aborts the binary if any occur. The hook is compiled out under
// sanitizers and MRLQUANT_AUDIT builds, whose instrumentation allocates
// behind our back.
//
// Reported rows (values/s unless noted):
//   server_add_batch_uds         single client, serial, 64Ki batches
//   server_query_latency_us      QUERY round-trip, mean microseconds
//   server_add_batch_serial_small  1 conn, request-per-RTT, 512-value
//                                  batches — the PR5 worker-pool protocol
//                                  behavior, the sweep's baseline
//   server_add_batch_c{C}_s{S}   C pipelined connections x S shards,
//                                aggregate, 512-value batches
//
// The acceptance ratio for PR8 (>= 3x) compares the best 4-shard
// pipelined row against server_add_batch_serial_small: on a many-core box
// the shards add parallel speedup on top; on a single-core box the win is
// pipelining amortizing per-request round trips, which is exactly the
// synchronization-and-syscall overhead this PR removes.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_reporter.h"
#include "server/client.h"
#include "server/server.h"
#include "util/random.h"
#include "util/types.h"

#if defined(MRLQUANT_AUDIT) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#define MRL_BENCH_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MRL_BENCH_COUNT_ALLOCS 0
#else
#define MRL_BENCH_COUNT_ALLOCS 1
#endif
#else
#define MRL_BENCH_COUNT_ALLOCS 1
#endif

#if MRL_BENCH_COUNT_ALLOCS

// GCC cannot see that the replaced operator new/delete pair below is
// internally consistent (malloc in new, free in delete) and reports a
// mismatched-new-delete false positive at every call site in this TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // MRL_BENCH_COUNT_ALLOCS

namespace mrl {
namespace {

using server::Client;
using server::QuantileServer;
using server::ServerOptions;
using server::TenantConfig;

constexpr std::size_t kBatch = 65536;
/// Small frames for the connection sweep: per-request overhead dominated,
/// which is what sharding + pipelining attack. (At 32 values/frame the
/// round-trip cost dwarfs ingestion; by ~512 the per-value sketch work
/// dominates and the sweep would only measure the sketch.)
constexpr std::size_t kSmallBatch = 32;
constexpr std::size_t kPipelineDepth = 32;

std::uint64_t AllocCount() {
#if MRL_BENCH_COUNT_ALLOCS
  return g_alloc_count.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

void CheckNoAllocs(std::uint64_t before, const char* where) {
#if MRL_BENCH_COUNT_ALLOCS
  const std::uint64_t after = AllocCount();
  if (after != before) {
    std::fprintf(stderr,
                 "FATAL: %s performed %llu heap allocation(s) in steady "
                 "state; the zero-allocation ADD_BATCH contract is broken\n",
                 where, static_cast<unsigned long long>(after - before));
    std::abort();
  }
#else
  (void)before;
  (void)where;
#endif
}

std::vector<Value> UniformStream(std::size_t n, std::uint64_t seed) {
  Random rng(seed);
  std::vector<Value> values(n);
  for (Value& v : values) v = rng.UniformDouble();
  return values;
}

/// Pushes `values` serially (one request per round trip) in `batch`
/// chunks; returns elapsed seconds.
double PushAllSerial(Client* client, const char* tenant,
                     const std::vector<Value>& values, std::size_t batch) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < values.size(); i += batch) {
    const std::size_t n = std::min(values.size() - i, batch);
    Result<std::uint64_t> count = client->AddBatch(
        tenant, std::span<const Value>(values.data() + i, n));
    if (!count.ok()) {
      std::fprintf(stderr, "ADD_BATCH failed: %s\n",
                   count.status().ToString().c_str());
      std::exit(1);
    }
  }
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

/// Pushes `values` in kSmallBatch frames, kPipelineDepth frames per
/// flush. Exits on any failed request.
void PushAllPipelined(Client* client, const char* tenant,
                      const std::vector<Value>& values) {
  std::size_t i = 0;
  while (i < values.size()) {
    for (std::size_t d = 0; d < kPipelineDepth && i < values.size(); ++d) {
      const std::size_t n = std::min(values.size() - i, kSmallBatch);
      client->PipelineAddBatch(
          tenant, std::span<const Value>(values.data() + i, n));
      i += n;
    }
    const Status flushed = client->PipelineFlush(nullptr);
    if (!flushed.ok()) {
      std::fprintf(stderr, "pipelined ADD_BATCH failed: %s\n",
                   flushed.ToString().c_str());
      std::exit(1);
    }
  }
}

struct SweepServer {
  std::unique_ptr<QuantileServer> server;
  std::string uds_path;
};

SweepServer StartServer(int num_shards, const char* tag) {
  SweepServer s;
  s.uds_path = "/tmp/mrlq_bench." +
               std::to_string(static_cast<long>(::getpid())) + "." + tag +
               ".sock";
  ServerOptions options;
  options.uds_path = s.uds_path;
  options.num_shards = num_shards;
  Result<std::unique_ptr<QuantileServer>> server =
      QuantileServer::Create(std::move(options));
  if (!server.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 server.status().ToString().c_str());
    std::exit(1);
  }
  s.server = std::move(server).value();
  return s;
}

/// Aggregate pipelined ADD_BATCH throughput: `connections` client threads
/// pushing `per_conn` values each into per-connection tenants (tenant
/// names spread connections across shards via the registry hash).
double SweepConfig(const std::string& uds_path, int connections,
                   std::size_t per_conn) {
  std::vector<std::vector<Value>> chunks;
  chunks.reserve(static_cast<std::size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    chunks.push_back(
        UniformStream(per_conn, 9000 + static_cast<std::uint64_t>(c)));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> pushers;
  const auto start = std::chrono::steady_clock::now();
  for (int c = 0; c < connections; ++c) {
    pushers.emplace_back([&, c] {
      Result<Client> client = Client::ConnectUnix(uds_path);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      const std::string tenant = "sweep" + std::to_string(c);
      if (!client.value().CreateSketch(tenant, TenantConfig{}).ok()) {
        failures.fetch_add(1);
        return;
      }
      PushAllPipelined(&client.value(), tenant.c_str(),
                       chunks[static_cast<std::size_t>(c)]);
      if (!client.value().Delete(tenant).ok()) failures.fetch_add(1);
    });
  }
  for (std::thread& p : pushers) p.join();
  const auto end = std::chrono::steady_clock::now();
  if (failures.load() != 0) {
    std::fprintf(stderr, "sweep config failed\n");
    std::exit(1);
  }
  const double total =
      static_cast<double>(connections) * static_cast<double>(per_conn);
  return total / std::chrono::duration<double>(end - start).count();
}

int Run() {
  bench::BenchReporter reporter("server_throughput");

  // --- Single-shard server: legacy rows + the sweep baseline. -----------
  SweepServer s1 = StartServer(/*num_shards=*/1, "s1");

  Result<Client> connected = Client::ConnectUnix(s1.uds_path);
  if (!connected.ok()) return 1;
  Client client = std::move(connected).value();

  // --- Single-client ADD_BATCH throughput (unknown-N tenant). -----------
  if (!client.CreateSketch("bench", TenantConfig{}).ok()) return 1;
  const std::vector<Value> warmup = UniformStream(1 << 21, 1);
  PushAllSerial(&client, "bench", warmup, kBatch);  // warm all layers

  // Zero-allocation window (serial): every layer of the ADD_BATCH path is
  // warmed; further frames must not touch the heap from any thread.
  {
    const std::uint64_t before = AllocCount();
    for (int i = 0; i < 32; ++i) {
      std::span<const Value> batch(warmup.data() + i * 1024, kBatch / 2);
      if (!client.AddBatch("bench", batch).ok()) return 1;
    }
    CheckNoAllocs(before, "steady-state ADD_BATCH");
  }

  // Zero-allocation window (pipelined): the same contract through the
  // shard's multi-frame-per-readv decode loop and batched writev flush.
  {
    PushAllPipelined(&client, "bench", warmup);  // warm the pipelined path
    const std::uint64_t before = AllocCount();
    for (int i = 0; i < 4; ++i) {
      for (std::size_t d = 0; d < kPipelineDepth; ++d) {
        client.PipelineAddBatch(
            "bench", std::span<const Value>(warmup.data() + d * kSmallBatch,
                                            kSmallBatch));
      }
      if (!client.PipelineFlush(nullptr).ok()) return 1;
    }
    CheckNoAllocs(before, "steady-state pipelined ADD_BATCH");
  }

  const std::vector<Value> data = UniformStream(std::size_t{4} << 20, 2);
  const double seconds = PushAllSerial(&client, "bench", data, kBatch);
  const double rate = static_cast<double>(data.size()) / seconds;
  std::printf("server_add_batch_uds: %.3g values/s\n", rate);
  reporter.ReportValue("server_add_batch_uds", rate, "values/s");

  // --- QUERY round-trip latency. ----------------------------------------
  {
    constexpr int kQueries = 2000;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kQueries; ++i) {
      const double phi = 0.001 + 0.998 * (static_cast<double>(i) / kQueries);
      if (!client.Query("bench", phi).ok()) return 1;
    }
    const auto end = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(end - start).count() /
        kQueries;
    std::printf("server_query_latency_us: %.3g us\n", us);
    reporter.ReportValue("server_query_latency_us", us, "us");
  }

  // --- Sweep baseline: request-per-RTT with small frames (the PR5 worker
  // pool served exactly this protocol behavior). -------------------------
  double serial_small = 0;
  {
    const std::vector<Value> small = UniformStream(std::size_t{1} << 19, 3);
    PushAllSerial(&client, "bench", small, kSmallBatch);  // warm
    const double secs = PushAllSerial(&client, "bench", small, kSmallBatch);
    serial_small = static_cast<double>(small.size()) / secs;
    std::printf("server_add_batch_serial_small: %.3g values/s\n",
                serial_small);
    reporter.ReportValue("server_add_batch_serial_small", serial_small,
                         "values/s");
  }

  // --- Connection-scaling sweep: C pipelined connections x S shards. ----
  const int kConnCounts[] = {1, 4, 16, 64};
  double best_s4 = 0;
  for (const int shards : {1, 4}) {
    // The single-shard pass reuses s1 (moving it in); the 4-shard pass
    // gets a fresh server after s1 is stopped below.
    SweepServer srv = shards == 1 ? std::move(s1) : StartServer(4, "s4");
    for (const int conns : kConnCounts) {
      // Fixed total work per config so slow configs do not dominate
      // wall-clock; at least one flush-window per connection.
      const std::size_t total = std::size_t{1} << 21;
      const std::size_t per_conn =
          std::max<std::size_t>(total / static_cast<std::size_t>(conns),
                                kSmallBatch * kPipelineDepth);
      const double sweep_rate =
          SweepConfig(srv.uds_path, conns, per_conn);
      char row[64];
      std::snprintf(row, sizeof(row), "server_add_batch_c%d_s%d", conns,
                    shards);
      std::printf("%s: %.3g values/s\n", row, sweep_rate);
      reporter.ReportValue(row, sweep_rate, "values/s");
      if (shards == 4) best_s4 = std::max(best_s4, sweep_rate);
    }
    srv.server->Stop();
    std::remove(srv.uds_path.c_str());
  }

  std::printf("pr8_speedup_best4shard_vs_serial: %.2fx\n",
              best_s4 / serial_small);
  reporter.ReportValue("pr8_speedup_best4shard_vs_serial",
                       best_s4 / serial_small, "x");
  return 0;
}

}  // namespace
}  // namespace mrl

int main() { return mrl::Run(); }
