// Microbenchmarks for the weighted-merge selection kernel and the collapse
// hot path. The pre-loser-tree flat scan is kept in the library as
// SelectWeightedPositionsNaive so old and new kernels run side by side here
// (and differentially in tests/merge_differential_test.cc).
//
// BM_CollapseSteadyState additionally asserts the PR's zero-allocation
// claim: a global operator new hook counts heap allocations around each
// steady-state Collapse and aborts the binary if any occur. The hook is
// compiled out under sanitizers and MRLQUANT_AUDIT builds, whose
// instrumentation allocates behind our back.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "bench_reporter.h"
#include "core/buffer.h"
#include "core/collapse.h"
#include "core/weighted_merge.h"
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

constexpr std::size_t kK = 1024;

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
                 "state; the scratch-arena contract is broken\n",
                 where, static_cast<unsigned long long>(after - before));
    std::abort();
  }
#else
  (void)before;
  (void)where;
#endif
}

/// b sorted runs of kK elements each with mixed weights, plus the k
/// collapse-selected target positions for that weight — the exact input
/// shape Collapse feeds the merge kernel.
struct MergeInput {
  std::vector<std::vector<Value>> storage;
  std::vector<WeightedRun> runs;
  std::vector<Weight> targets;
};

MergeInput MakeMergeInput(std::size_t num_runs) {
  MergeInput in;
  Random rng(0x9e3779b9U + num_runs);
  Weight total_weight = 0;
  in.storage.resize(num_runs);
  for (std::size_t i = 0; i < num_runs; ++i) {
    std::vector<Value>& run = in.storage[i];
    run.resize(kK);
    double x = 0;
    for (Value& v : run) {
      x += rng.UniformDouble();
      v = x;
    }
    const Weight w = (i % 3) + 1;
    total_weight += w;
    in.runs.push_back({run.data(), run.size(), w});
  }
  CollapsePositionsInto(total_weight, kK, /*even_low=*/false, &in.targets);
  return in;
}

void BM_SelectNaive(benchmark::State& state) {
  const MergeInput in =
      MakeMergeInput(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    std::vector<Value> out = SelectWeightedPositionsNaive(in.runs, in.targets);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in.runs.size() * kK));
}
// Odd run counts (3, 17) exercise the loser tree's padded non-power-of-two
// bracket and the prefetch paths on partially exhausted leaves.
BENCHMARK(BM_SelectNaive)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Arg(10)
    ->Arg(16)
    ->Arg(17)
    ->Arg(32);

void BM_SelectLoserTree(benchmark::State& state) {
  const MergeInput in =
      MakeMergeInput(static_cast<std::size_t>(state.range(0)));
  MergeScratch scratch;
  std::vector<Value> out(kK);
  for (auto _ : state) {
    SelectWeightedPositionsInto(in.runs.data(), in.runs.size(),
                                in.targets.data(), in.targets.size(), &scratch,
                                out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in.runs.size() * kK));
}
BENCHMARK(BM_SelectLoserTree)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Arg(10)
    ->Arg(16)
    ->Arg(17)
    ->Arg(32);

void BM_CollapseSteadyState(benchmark::State& state) {
  const std::size_t b = static_cast<std::size_t>(state.range(0));
  const MergeInput in = MakeMergeInput(b);
  std::vector<Buffer> buffers(b, Buffer(kK));
  std::vector<Buffer*> inputs;
  for (Buffer& buf : buffers) inputs.push_back(&buf);
  CollapseScratch scratch;
  bool even_low = true;

  const auto one_round = [&] {
    for (std::size_t i = 0; i < b; ++i) {
      buffers[i].AssignSortedCopy(in.storage[i].data(), kK, in.runs[i].weight,
                                  /*level=*/0);
    }
    Collapse(inputs, /*output_slot=*/0, /*output_level=*/1, &even_low,
             &scratch);
  };
  // Warm every capacity (scratch vectors, buffer storage, tournament tree)
  // before asserting the zero-allocation steady state.
  for (int i = 0; i < 4; ++i) one_round();

  for (auto _ : state) {
    for (std::size_t i = 0; i < b; ++i) {
      buffers[i].AssignSortedCopy(in.storage[i].data(), kK, in.runs[i].weight,
                                  /*level=*/0);
    }
    const std::uint64_t before = AllocCount();
    Collapse(inputs, /*output_slot=*/0, /*output_level=*/1, &even_low,
             &scratch);
    CheckNoAllocs(before, "Collapse");
    benchmark::DoNotOptimize(buffers[0].values().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(b * kK));
  state.counters["mem_elems"] =
      static_cast<double>(b * kK + scratch.selected.capacity());
}
BENCHMARK(BM_CollapseSteadyState)->Arg(3)->Arg(10)->Arg(16);

}  // namespace
}  // namespace mrl

int main(int argc, char** argv) {
  return mrl::bench::RunBenchmarksWithReporter(argc, argv, "merge_kernels");
}
