// Genuinely concurrent stress tests, written to run under
// -fsanitize=thread (the CI tsan lane). They exercise exactly the thread
// contracts the headers document:
//
//  * Per-thread UnknownNSketches: each sketch is single-writer; writers on
//    distinct sketches need no synchronization; after the join barrier the
//    sketches are combined through ExportPartial + MergePartialQuantiles.
//  * ParallelQuantiles / ParallelCoordinator: workers run on their own
//    threads and never communicate until termination; the coordinator is
//    externally synchronized.
//  * Query / QueryMany on a quiescent sketch are const and may run from
//    many reader threads at once.
//
// Without TSan these still pass; under TSan any data race in the batch
// ingestion or merge paths becomes a hard failure.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "core/partial.h"
#include "core/unknown_n.h"
#include "util/random.h"

namespace mrl {
namespace {

constexpr int kThreads = 4;
constexpr std::uint64_t kPerShard = 60000;

std::vector<Value> ShardValues(int shard, std::uint64_t n) {
  // Distinct deterministic data per shard; the union is a permutation of
  // 0 .. kThreads*n-1, so union quantiles are exactly predictable.
  std::vector<Value> values;
  values.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    values.push_back(static_cast<Value>(i * kThreads +
                                        static_cast<std::uint64_t>(shard)));
  }
  Random rng(static_cast<std::uint64_t>(shard) + 1);
  for (std::size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1],
              values[rng.NextUint64() % static_cast<std::uint64_t>(i)]);
  }
  return values;
}

// `params` must come from SolveParallelWorker (Eq. 4-6), so the merged
// answers carry the same (eps, delta) as one sketch over the union.
std::vector<UnknownNSketch> MakeWorkerSketches(const UnknownNParams& params,
                                               int count) {
  std::vector<UnknownNSketch> sketches;
  for (int w = 0; w < count; ++w) {
    UnknownNOptions worker_options;
    worker_options.params = params;
    worker_options.seed = 100 + static_cast<std::uint64_t>(w);
    sketches.push_back(
        std::move(UnknownNSketch::Create(worker_options)).value());
  }
  return sketches;
}

std::vector<PartialSummary> ExportAll(
    const std::vector<UnknownNSketch>& sketches) {
  std::vector<PartialSummary> parts(sketches.size());
  for (std::size_t i = 0; i < sketches.size(); ++i) {
    EXPECT_TRUE(sketches[i].ExportPartial(&parts[i]).ok());
  }
  return parts;
}

TEST(PartialConcurrencyTest, PerThreadWritersThenMergedQuery) {
  ParallelOptions options;
  options.eps = 0.02;
  options.delta = 1e-3;
  options.num_workers = kThreads;
  Result<UnknownNParams> params = SolveParallelWorker(options);
  ASSERT_TRUE(params.ok());
  std::vector<UnknownNSketch> sketches =
      MakeWorkerSketches(params.value(), kThreads);

  // Each writer owns one sketch; the join is the barrier after which the
  // sketches are read.
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&sketches, w] {
      std::vector<Value> values = ShardValues(w, kPerShard);
      // Mix batch and per-element ingestion to cover both write paths.
      std::size_t half = values.size() / 2;
      UnknownNSketch& sketch = sketches[static_cast<std::size_t>(w)];
      sketch.AddBatch(std::span<const Value>(values.data(), half));
      for (std::size_t i = half; i < values.size(); ++i) {
        sketch.Add(values[i]);
      }
    });
  }
  for (std::thread& t : writers) t.join();

  std::vector<PartialSummary> parts = ExportAll(sketches);
  std::uint64_t count = 0;
  for (const PartialSummary& part : parts) count += part.count;
  const std::uint64_t total = kThreads * kPerShard;
  EXPECT_EQ(count, total);

  // The union is a permutation of 0 .. total-1, so value v has rank v + 1.
  const std::vector<double> phis = {0.01, 0.25, 0.5, 0.75, 0.99};
  Result<std::vector<Value>> answers =
      MergePartialQuantiles(parts, /*seed=*/7, phis);
  ASSERT_TRUE(answers.ok());
  for (std::size_t i = 0; i < phis.size(); ++i) {
    EXPECT_NEAR((answers.value()[i] + 1.0) / static_cast<double>(total),
                phis[i], options.eps)
        << "phi=" << phis[i];
  }
}

TEST(PartialConcurrencyTest, ConcurrentConstReadsOnQuiescentSketches) {
  ParallelOptions options;
  options.eps = 0.05;
  options.delta = 1e-3;
  options.num_workers = 2;
  Result<UnknownNParams> params = SolveParallelWorker(options);
  ASSERT_TRUE(params.ok());
  std::vector<UnknownNSketch> sketches =
      MakeWorkerSketches(params.value(), options.num_workers);
  for (int w = 0; w < options.num_workers; ++w) {
    sketches[static_cast<std::size_t>(w)].AddBatch(ShardValues(w, 30000));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int r = 0; r < kThreads; ++r) {
    readers.emplace_back([&sketches, &failures] {
      for (int iter = 0; iter < 20; ++iter) {
        for (const UnknownNSketch& sketch : sketches) {
          Result<std::vector<Value>> q = sketch.QueryMany({0.1, 0.5, 0.9});
          if (!q.ok() || q.value().size() != 3) failures.fetch_add(1);
        }
        Result<std::vector<Value>> merged =
            MergePartialQuantiles(ExportAll(sketches), /*seed=*/3, {0.5});
        if (!merged.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ParallelConcurrencyTest, WorkerThreadsFeedCoordinator) {
  ParallelOptions options;
  options.eps = 0.03;
  options.delta = 1e-3;
  options.num_workers = kThreads;
  Result<UnknownNParams> params = SolveParallelWorker(options);
  ASSERT_TRUE(params.ok());

  ParallelCoordinator coordinator(params.value(), /*seed=*/11);
  std::mutex coordinator_mutex;  // Ingest is externally synchronized
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      UnknownNOptions worker_options;
      worker_options.params = params.value();
      worker_options.seed = 1000 + static_cast<std::uint64_t>(w);
      Result<UnknownNSketch> sketch =
          UnknownNSketch::Create(worker_options);
      ASSERT_TRUE(sketch.ok());
      std::vector<Value> values =
          ShardValues(w, kPerShard + static_cast<std::uint64_t>(w) * 331);
      sketch.value().AddBatch(values);
      std::vector<ShippedBuffer> shipped =
          sketch.value().FinishAndExport();
      std::lock_guard<std::mutex> lock(coordinator_mutex);
      coordinator.Ingest(std::move(shipped));
    });
  }
  for (std::thread& t : workers) t.join();

  Result<Value> median = coordinator.Query(0.5);
  ASSERT_TRUE(median.ok());
  EXPECT_GT(coordinator.ReceivedWeight(), 0u);
}

TEST(ParallelConcurrencyTest, EndToEndHelperUnderThreads) {
  // ParallelQuantiles spawns one thread per shard internally; run it with
  // uneven shard sizes so worker lifetimes overlap asymmetrically.
  std::vector<std::vector<Value>> shards;
  for (int w = 0; w < kThreads; ++w) {
    shards.push_back(
        ShardValues(w, 20000 + static_cast<std::uint64_t>(w) * 7000));
  }
  ParallelOptions options;
  options.eps = 0.05;
  options.delta = 1e-3;
  options.num_workers = kThreads;
  Result<std::vector<Value>> answers =
      ParallelQuantiles(shards, options, {0.25, 0.5, 0.75});
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers.value().size(), 3u);
}

}  // namespace
}  // namespace mrl
