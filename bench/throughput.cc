// Single-pass cost (Section 1.3: the algorithm must keep up with a scan):
// google-benchmark microbenchmarks of per-element insertion for every
// estimator in the library, plus query cost, plus the effect of sampling
// (deep vs shallow trees) on insertion throughput. Element-wise Add and
// the batch ingestion path (AddBatch) are reported side by side — compare
// items_per_second between BM_*Add and BM_*AddBatch at the same args.

#include <benchmark/benchmark.h>

#include <span>

#include "bench_reporter.h"

#include "baseline/exact.h"
#include "baseline/munro_paterson.h"
#include "baseline/reservoir_quantile.h"
#include "core/extreme.h"
#include "core/known_n.h"
#include "core/unknown_n.h"
#include "sampling/block_sampler.h"
#include "stream/generator.h"
#include "util/random.h"

namespace {

const std::vector<mrl::Value>& InputStream() {
  static const auto* values = [] {
    mrl::StreamSpec spec;
    spec.n = 1 << 20;
    spec.seed = 3;
    return new std::vector<mrl::Value>(mrl::GenerateStream(spec).values());
  }();
  return *values;
}

// The unknown-N sketch's per-element cost falls as its sampling rate grows
// with the stream, so its Add rows run a fixed stream of kFixedStream values
// (->Iterations): each row is the mean cost over that prefix, independent
// of --benchmark_min_time.
constexpr std::int64_t kFixedStream = std::int64_t{1} << 23;
constexpr std::size_t kBatchChunk = std::size_t{1} << 16;

void BM_UnknownNAdd(benchmark::State& state) {
  const auto& input = InputStream();
  mrl::UnknownNOptions options;
  options.eps = 1.0 / static_cast<double>(state.range(0));
  options.delta = 1e-4;
  auto sketch = std::move(mrl::UnknownNSketch::Create(options)).value();
  std::size_t i = 0;
  for (auto _ : state) {
    sketch.Add(input[i++ & (input.size() - 1)]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["mem_elems"] =
      static_cast<double>(sketch.MemoryElements());
}
BENCHMARK(BM_UnknownNAdd)
    ->Arg(20)
    ->Arg(100)
    ->Arg(1000)
    ->Iterations(kFixedStream);

void BM_UnknownNAddBatch(benchmark::State& state) {
  // Same configuration as BM_UnknownNAdd, fed through the batch path in
  // 64Ki-value spans. Answers are bit-identical; only the per-element
  // bookkeeping (virtual dispatch, buffer-capacity checks, RNG calls when
  // sampling) is amortized over whole blocks.
  const auto& input = InputStream();
  mrl::UnknownNOptions options;
  options.eps = 1.0 / static_cast<double>(state.range(0));
  options.delta = 1e-4;
  auto sketch = std::move(mrl::UnknownNSketch::Create(options)).value();
  const std::size_t chunk = kBatchChunk;
  std::size_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    if (i + chunk > input.size()) i = 0;
    state.ResumeTiming();
    sketch.AddBatch(std::span<const mrl::Value>(input.data() + i, chunk));
    i += chunk;
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * chunk));
  state.counters["mem_elems"] =
      static_cast<double>(sketch.MemoryElements());
}
BENCHMARK(BM_UnknownNAddBatch)
    ->Arg(20)
    ->Arg(100)
    ->Arg(1000)
    ->Iterations(kFixedStream / static_cast<std::int64_t>(kBatchChunk));

// Add vs AddBatch at a pinned sampling rate (explicit KnownN params, so
// the rate never changes mid-run — the unknown-N sketch's rate grows with
// the stream, which would make the two runs incomparable). This isolates
// the acceptance claim: at rate r >= 8 the batch path advances whole
// blocks with one uniform draw each instead of r per-element steps.
mrl::KnownNSketch MakeFixedRateSketch(mrl::Weight rate) {
  mrl::KnownNParams p;
  p.b = 8;
  p.k = 1024;
  p.h = 4;
  p.rate = rate;
  p.alpha = 0.5;
  p.n = std::uint64_t{1} << 62;
  mrl::KnownNOptions options;
  options.params = p;
  return std::move(mrl::KnownNSketch::Create(options)).value();
}

void BM_KnownNAddFixedRate(benchmark::State& state) {
  const auto& input = InputStream();
  auto sketch = MakeFixedRateSketch(static_cast<mrl::Weight>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    sketch.Add(input[i++ & (input.size() - 1)]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KnownNAddFixedRate)->Arg(1)->Arg(8)->Arg(64);

void BM_KnownNAddBatchFixedRate(benchmark::State& state) {
  const auto& input = InputStream();
  auto sketch = MakeFixedRateSketch(static_cast<mrl::Weight>(state.range(0)));
  const std::size_t chunk = std::size_t{1} << 16;
  std::size_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    if (i + chunk > input.size()) i = 0;
    state.ResumeTiming();
    sketch.AddBatch(std::span<const mrl::Value>(input.data() + i, chunk));
    i += chunk;
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * chunk));
}
BENCHMARK(BM_KnownNAddBatchFixedRate)->Arg(1)->Arg(8)->Arg(64);

void BM_BlockSamplerAdd(benchmark::State& state) {
  const auto& input = InputStream();
  mrl::BlockSampler sampler(mrl::Random(7),
                            static_cast<mrl::Weight>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Add(input[i++ & (input.size() - 1)]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BlockSamplerAdd)->Arg(1)->Arg(8)->Arg(64);

void BM_BlockSamplerAddBatch(benchmark::State& state) {
  const auto& input = InputStream();
  mrl::BlockSampler sampler(mrl::Random(7),
                            static_cast<mrl::Weight>(state.range(0)));
  std::vector<mrl::Value> out;
  const std::size_t chunk = std::size_t{1} << 16;
  std::size_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    if (i + chunk > input.size()) i = 0;
    out.clear();
    state.ResumeTiming();
    sampler.AddBatch(input.data() + i, chunk, out);
    i += chunk;
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * chunk));
}
BENCHMARK(BM_BlockSamplerAddBatch)->Arg(1)->Arg(8)->Arg(64);

void BM_UnknownNAddDeepTree(benchmark::State& state) {
  // Small forced parameters: collapses and rate doublings happen
  // constantly; measures the amortized worst case.
  const auto& input = InputStream();
  mrl::UnknownNParams p;
  p.b = 4;
  p.k = 64;
  p.h = 3;
  p.alpha = 0.5;
  mrl::UnknownNOptions options;
  options.params = p;
  auto sketch = std::move(mrl::UnknownNSketch::Create(options)).value();
  std::size_t i = 0;
  for (auto _ : state) {
    sketch.Add(input[i++ & (input.size() - 1)]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_UnknownNAddDeepTree)->Iterations(kFixedStream);

void BM_KnownNAdd(benchmark::State& state) {
  const auto& input = InputStream();
  mrl::KnownNOptions options;
  options.eps = 0.01;
  options.delta = 1e-4;
  options.n = std::uint64_t{1} << 40;  // sampling active
  auto sketch = std::move(mrl::KnownNSketch::Create(options)).value();
  std::size_t i = 0;
  for (auto _ : state) {
    sketch.Add(input[i++ & (input.size() - 1)]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KnownNAdd);

void BM_MunroPatersonAdd(benchmark::State& state) {
  const auto& input = InputStream();
  mrl::MunroPatersonSketch::Options options;
  options.eps = 0.01;
  options.n = std::uint64_t{1} << 30;
  auto sketch = std::move(mrl::MunroPatersonSketch::Create(options)).value();
  std::size_t i = 0;
  for (auto _ : state) {
    sketch.Add(input[i++ & (input.size() - 1)]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MunroPatersonAdd);

void BM_ReservoirAdd(benchmark::State& state) {
  const auto& input = InputStream();
  mrl::ReservoirQuantileSketch::Options options;
  options.eps = 0.01;
  options.delta = 1e-4;
  auto sketch =
      std::move(mrl::ReservoirQuantileSketch::Create(options)).value();
  std::size_t i = 0;
  for (auto _ : state) {
    sketch.Add(input[i++ & (input.size() - 1)]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ReservoirAdd);

void BM_ExtremeValueAdd(benchmark::State& state) {
  const auto& input = InputStream();
  mrl::ExtremeValueOptions options;
  options.phi = 0.999;
  options.eps = 0.0005;
  options.delta = 1e-4;
  options.n = std::uint64_t{1} << 30;
  auto sketch = std::move(mrl::ExtremeValueSketch::Create(options)).value();
  std::size_t i = 0;
  for (auto _ : state) {
    sketch.Add(input[i++ & (input.size() - 1)]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ExtremeValueAdd);

void BM_UnknownNQuery(benchmark::State& state) {
  const auto& input = InputStream();
  mrl::UnknownNOptions options;
  options.eps = 0.01;
  options.delta = 1e-4;
  auto sketch = std::move(mrl::UnknownNSketch::Create(options)).value();
  for (mrl::Value v : input) sketch.Add(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.Query(0.5));
  }
}
BENCHMARK(BM_UnknownNQuery);

void BM_UnknownNQueryMany(benchmark::State& state) {
  // Batch query: histograms ask for many phis in one merge pass.
  const auto& input = InputStream();
  mrl::UnknownNOptions options;
  options.eps = 0.01;
  options.delta = 1e-4;
  auto sketch = std::move(mrl::UnknownNSketch::Create(options)).value();
  for (mrl::Value v : input) sketch.Add(v);
  std::vector<double> phis;
  for (int i = 1; i < 100; ++i) phis.push_back(i / 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.QueryMany(phis));
  }
}
BENCHMARK(BM_UnknownNQueryMany);

void BM_SerializeSketch(benchmark::State& state) {
  // Checkpoint encode cost; the counter reports the checkpoint size.
  const auto& input = InputStream();
  mrl::UnknownNOptions options;
  options.eps = 0.01;
  options.delta = 1e-4;
  auto sketch = std::move(mrl::UnknownNSketch::Create(options)).value();
  for (mrl::Value v : input) sketch.Add(v);
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto blob = sketch.Serialize();
    bytes = blob.size();
    benchmark::DoNotOptimize(blob);
  }
  state.counters["checkpoint_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SerializeSketch);

void BM_DeserializeSketch(benchmark::State& state) {
  const auto& input = InputStream();
  mrl::UnknownNOptions options;
  options.eps = 0.01;
  options.delta = 1e-4;
  auto sketch = std::move(mrl::UnknownNSketch::Create(options)).value();
  for (mrl::Value v : input) sketch.Add(v);
  const auto blob = sketch.Serialize();
  for (auto _ : state) {
    auto restored = mrl::UnknownNSketch::Deserialize(blob);
    benchmark::DoNotOptimize(restored);
  }
}
BENCHMARK(BM_DeserializeSketch);

}  // namespace

int main(int argc, char** argv) {
  return mrl::bench::RunBenchmarksWithReporter(argc, argv, "throughput");
}
