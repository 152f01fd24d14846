// Golden-state pins for the merge engine rewrite: the serialized state of
// every sketch family after a fixed seeded stream, hashed with FNV-1a. The
// constants below were captured from the flat-cursor-scan implementation
// (pre loser-tree); the loser-tree merge and the scratch-arena collapse
// path must reproduce them byte for byte — same §3.2 offset alternation,
// same tie-breaking by run index, same answers. A mismatch here means the
// merge rewrite changed an answer somewhere.
//
// To regenerate after an INTENTIONAL state-format change, build with
// -DMRLQUANT_GOLDEN_PRINT and run the binary: it prints the new constants
// instead of asserting (see tests/CMakeLists.txt).

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/collapse_policy.h"
#include "core/framework.h"
#include "core/known_n.h"
#include "core/parallel.h"
#include "core/sharded.h"
#include "core/unknown_n.h"
#include "stream/generator.h"
#include "util/serde.h"

namespace mrl {
namespace {

std::uint64_t Fnv1a(const std::uint8_t* data, std::size_t size,
                    std::uint64_t hash = 0xcbf29ce484222325ull) {
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::uint64_t Fnv1a(const std::vector<std::uint8_t>& bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ull) {
  return Fnv1a(bytes.data(), bytes.size(), hash);
}

std::uint64_t HashValues(const std::vector<Value>& values,
                         std::uint64_t hash = 0xcbf29ce484222325ull) {
  for (Value v : values) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    hash = Fnv1a(reinterpret_cast<const std::uint8_t*>(&bits), sizeof(bits),
                 hash);
  }
  return hash;
}

const std::vector<double>& Phis() {
  static const std::vector<double> phis = {0.001, 0.01, 0.1, 0.25, 0.5,
                                           0.75,  0.9,  0.99, 0.999};
  return phis;
}

#ifdef MRLQUANT_GOLDEN_PRINT
#define GOLDEN_EQ(actual, expected) \
  printf("%s = 0x%016llxull\n", #expected, \
         static_cast<unsigned long long>(actual))
#else
#define GOLDEN_EQ(actual, expected) \
  EXPECT_EQ(actual, expected) << "state diverged from the pre-rewrite merge"
#endif

// ------------------------------------------------------------- unknown-N

std::uint64_t UnknownNGolden(bool small_params) {
  StreamSpec spec;
  spec.distribution = small_params ? "uniform" : "gaussian";
  spec.n = small_params ? 30000 : 60000;
  spec.seed = small_params ? 42 : 43;
  std::vector<Value> stream = GenerateStream(spec).values();

  UnknownNOptions options;
  options.seed = small_params ? 7 : 8;
  if (small_params) {
    UnknownNParams p;
    p.b = 4;
    p.k = 32;
    p.h = 2;
    p.alpha = 0.5;
    options.params = p;
  } else {
    options.eps = 0.02;
    options.delta = 1e-3;
  }
  UnknownNSketch sketch = std::move(UnknownNSketch::Create(options)).value();
  sketch.AddBatch(stream);
  std::uint64_t hash = Fnv1a(sketch.Serialize());
  hash = HashValues(sketch.QueryMany(Phis()).value(), hash);
  return hash;
}

constexpr std::uint64_t kUnknownNSmallGolden = 0xe4bb8fa9665a0386ull;
constexpr std::uint64_t kUnknownNSolvedGolden = 0x33bbf0baaed6e8ccull;

TEST(StateGoldenTest, UnknownNSmallParams) {
  GOLDEN_EQ(UnknownNGolden(/*small_params=*/true), kUnknownNSmallGolden);
}

TEST(StateGoldenTest, UnknownNSolvedParams) {
  GOLDEN_EQ(UnknownNGolden(/*small_params=*/false), kUnknownNSolvedGolden);
}

// --------------------------------------------------------------- known-N

constexpr std::uint64_t kKnownNGolden = 0xbe42a30174193dedull;

TEST(StateGoldenTest, KnownN) {
  StreamSpec spec;
  spec.n = 30000;
  spec.seed = 44;
  std::vector<Value> stream = GenerateStream(spec).values();

  KnownNOptions options;
  options.eps = 0.01;
  options.delta = 1e-4;
  options.n = std::uint64_t{1} << 30;  // sampling active (rate > 1)
  options.seed = 9;
  KnownNSketch sketch = std::move(KnownNSketch::Create(options)).value();
  sketch.AddBatch(stream);
  std::uint64_t hash = Fnv1a(sketch.Serialize());
  hash = HashValues(sketch.QueryMany(Phis()).value(), hash);
  GOLDEN_EQ(hash, kKnownNGolden);
}

// --------------------------------------------------------------- sharded

constexpr std::uint64_t kShardedGolden = 0xd6b53cc44dad8efcull;

TEST(StateGoldenTest, Sharded) {
  StreamSpec spec;
  spec.n = 24000;
  spec.seed = 6;
  std::vector<Value> stream = GenerateStream(spec).values();

  ShardedQuantileSketch::Options options;
  options.num_shards = 3;
  options.seed = 13;
  ShardedQuantileSketch sketch =
      std::move(ShardedQuantileSketch::Create(options)).value();
  std::size_t pos = 0;
  int shard = 0;
  while (pos < stream.size()) {
    std::size_t chunk = std::min<std::size_t>(1000, stream.size() - pos);
    sketch.AddBatch(shard, std::span<const Value>(stream.data() + pos, chunk));
    pos += chunk;
    shard = (shard + 1) % options.num_shards;
  }
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (int s = 0; s < options.num_shards; ++s) {
    hash = Fnv1a(sketch.shard(s).Serialize(), hash);
  }
  hash = HashValues(sketch.QueryMany(Phis()).value(), hash);
  GOLDEN_EQ(hash, kShardedGolden);
}

// -------------------------------------------------------------- parallel

constexpr std::uint64_t kParallelGolden = 0xb9adc76d657a2512ull;

TEST(StateGoldenTest, ParallelCoordinator) {
  ParallelOptions options;
  options.eps = 0.03;
  options.delta = 1e-3;
  options.num_workers = 3;
  UnknownNParams params = SolveParallelWorker(options).value();

  // Single-threaded deterministic replay of the Section 6 protocol: the
  // coordinator's state depends only on the per-worker exports and their
  // ingest order, both fixed here.
  ParallelCoordinator coordinator(params, /*seed=*/11);
  for (int w = 0; w < options.num_workers; ++w) {
    StreamSpec spec;
    spec.n = 20000 + static_cast<std::size_t>(w) * 7321;
    spec.seed = 100 + static_cast<std::uint64_t>(w);
    std::vector<Value> stream = GenerateStream(spec).values();
    UnknownNOptions worker_options;
    worker_options.params = params;
    worker_options.seed = 1000 + static_cast<std::uint64_t>(w);
    UnknownNSketch worker =
        std::move(UnknownNSketch::Create(worker_options)).value();
    worker.AddBatch(stream);
    coordinator.Ingest(worker.FinishAndExport());
  }
  std::uint64_t hash = HashValues(coordinator.QueryMany(Phis()).value());
  const std::uint64_t received = coordinator.ReceivedWeight();
  hash = Fnv1a(reinterpret_cast<const std::uint8_t*>(&received),
               sizeof(received), hash);
  const std::uint64_t collapses = coordinator.tree_stats().num_collapses;
  hash = Fnv1a(reinterpret_cast<const std::uint8_t*>(&collapses),
               sizeof(collapses), hash);
  GOLDEN_EQ(hash, kParallelGolden);
}

// ----------------------------------------------- framework, every policy

std::uint64_t PolicyGolden(CollapsePolicyKind kind) {
  // Drive the bare framework through enough leaves that every policy
  // collapses many times, including promotions and uneven levels.
  CollapseFramework fw(/*num_buffers=*/5, /*buffer_capacity=*/16,
                       MakeCollapsePolicy(kind));
  std::uint64_t x = 88172645463325252ull;  // xorshift64, fixed seed
  for (int leaf = 0; leaf < 64; ++leaf) {
    std::size_t slot = fw.AcquireEmptySlot();
    fw.buffer(slot).StartFill();
    for (std::size_t i = 0; i < fw.buffer_capacity(); ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      fw.buffer(slot).Append(
          static_cast<Value>(x % 1000));  // duplicate-heavy
    }
    fw.CommitFull(slot, /*weight=*/1, /*level=*/0);
  }
  std::vector<std::uint8_t> bytes;
  BinaryWriter writer(&bytes);
  fw.SerializeTo(&writer);
  return Fnv1a(bytes);
}

constexpr std::uint64_t kMrlPolicyGolden = 0x0762fa809649afc1ull;
constexpr std::uint64_t kMunroPatersonPolicyGolden = 0x4d86e6b7678dc9ddull;
constexpr std::uint64_t kCollapseAllPolicyGolden = 0x07982ed0f3ebb6eaull;

TEST(StateGoldenTest, MrlPolicyFramework) {
  GOLDEN_EQ(PolicyGolden(CollapsePolicyKind::kMrl), kMrlPolicyGolden);
}

TEST(StateGoldenTest, MunroPatersonPolicyFramework) {
  GOLDEN_EQ(PolicyGolden(CollapsePolicyKind::kMunroPaterson),
            kMunroPatersonPolicyGolden);
}

TEST(StateGoldenTest, CollapseAllPolicyFramework) {
  GOLDEN_EQ(PolicyGolden(CollapsePolicyKind::kCollapseAll),
            kCollapseAllPolicyGolden);
}

}  // namespace
}  // namespace mrl
