// Property tests for the batch ingestion path: for ANY partition of a
// stream into batches — including random split points and rate changes at
// block boundaries — AddBatch must leave bit-identical state and produce
// bit-identical answers to element-wise Add under the same seed. The
// equivalence is exact, not statistical: the sampler draws its pick offset
// once per block at the block's first element, so RNG consumption depends
// only on the stream position, never on the chunking.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "app/equidepth_histogram.h"
#include "app/online_aggregation.h"
#include "app/selectivity.h"
#include "baseline/ars.h"
#include "baseline/munro_paterson.h"
#include "core/estimator.h"
#include "core/extreme.h"
#include "core/kll.h"
#include "core/known_n.h"
#include "core/unknown_n.h"
#include "sampling/block_sampler.h"
#include "stream/generator.h"
#include "util/random.h"

namespace mrl {
namespace {

// Splits [0, n) into random-length chunks drawn from `rng` (chunk lengths
// 0..max_chunk inclusive, so empty batches are exercised too).
std::vector<std::size_t> RandomSplits(std::size_t n, std::size_t max_chunk,
                                      Random* rng) {
  std::vector<std::size_t> sizes;
  std::size_t used = 0;
  while (used < n) {
    std::size_t take = static_cast<std::size_t>(
        rng->UniformUint64(static_cast<std::uint64_t>(max_chunk) + 1));
    if (take > n - used) take = n - used;
    sizes.push_back(take);
    used += take;
  }
  return sizes;
}

void ExpectSamplerStatesEqual(const BlockSampler& a, const BlockSampler& b) {
  BlockSampler::State sa = a.SaveState();
  BlockSampler::State sb = b.SaveState();
  EXPECT_EQ(sa.rng.state, sb.rng.state);
  EXPECT_EQ(sa.rng.inc, sb.rng.inc);
  EXPECT_EQ(sa.rate, sb.rate);
  EXPECT_EQ(sa.seen_in_block, sb.seen_in_block);
  EXPECT_EQ(sa.pick_offset, sb.pick_offset);
  EXPECT_EQ(sa.candidate, sb.candidate);
}

// ------------------------------------------------------------ BlockSampler

TEST(BatchEquivalenceTest, BlockSamplerRandomSplits) {
  Random splitter(99);
  for (Weight rate : {Weight{1}, Weight{2}, Weight{3}, Weight{8},
                      Weight{64}, Weight{1000}}) {
    for (int trial = 0; trial < 5; ++trial) {
      StreamSpec spec;
      spec.n = 4096 + static_cast<std::size_t>(splitter.UniformUint64(512));
      spec.seed = 100 + static_cast<std::uint64_t>(trial);
      std::vector<Value> stream = GenerateStream(spec).values();

      const std::uint64_t sampler_seed = 7 * rate + trial;
      BlockSampler elementwise(Random(sampler_seed), rate);
      BlockSampler batched(Random(sampler_seed), rate);

      std::vector<Value> out_elementwise;
      for (Value v : stream) {
        if (auto s = elementwise.Add(v)) out_elementwise.push_back(*s);
      }

      std::vector<Value> out_batched;
      std::size_t pos = 0;
      for (std::size_t chunk : RandomSplits(stream.size(), 200, &splitter)) {
        batched.AddBatch(stream.data() + pos, chunk, out_batched);
        pos += chunk;
      }

      ASSERT_EQ(out_elementwise.size(), out_batched.size())
          << "rate " << rate << " trial " << trial;
      for (std::size_t i = 0; i < out_elementwise.size(); ++i) {
        ASSERT_EQ(out_elementwise[i], out_batched[i]) << "survivor " << i;
      }
      ExpectSamplerStatesEqual(elementwise, batched);
    }
  }
}

TEST(BatchEquivalenceTest, BlockSamplerRateChangesAtBoundaries) {
  // Feed segments whose lengths are multiples of the current rate, doubling
  // the rate at each (guaranteed) block boundary — the unknown-N usage.
  Random splitter(5);
  const std::uint64_t sampler_seed = 42;
  BlockSampler elementwise(Random(sampler_seed), 1);
  BlockSampler batched(Random(sampler_seed), 1);
  std::vector<Value> out_elementwise, out_batched;

  Value next_value = 0;
  Weight rate = 1;
  for (int segment = 0; segment < 8; ++segment) {
    const std::size_t blocks =
        1 + static_cast<std::size_t>(splitter.UniformUint64(5));
    std::vector<Value> seg;
    for (std::size_t i = 0; i < blocks * rate; ++i) seg.push_back(next_value++);

    for (Value v : seg) {
      if (auto s = elementwise.Add(v)) out_elementwise.push_back(*s);
    }
    std::size_t pos = 0;
    for (std::size_t chunk : RandomSplits(seg.size(), 2 * rate, &splitter)) {
      batched.AddBatch(seg.data() + pos, chunk, out_batched);
      pos += chunk;
    }
    ExpectSamplerStatesEqual(elementwise, batched);

    ASSERT_TRUE(elementwise.at_block_boundary());
    ASSERT_TRUE(batched.at_block_boundary());
    rate *= 2;
    elementwise.SetRate(rate);
    batched.SetRate(rate);
  }
  EXPECT_EQ(out_elementwise, out_batched);
}

// ----------------------------------------------------------- UnknownNSketch

UnknownNSketch MakeUnknownN(std::uint64_t seed, bool small_params) {
  UnknownNOptions options;
  options.seed = seed;
  if (small_params) {
    // Tiny forced parameters: collapses and sampling-rate doublings happen
    // every few hundred elements, exercising the batch path's interaction
    // with StartNewFill/CommitFull constantly.
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
  return std::move(UnknownNSketch::Create(options)).value();
}

TEST(BatchEquivalenceTest, UnknownNSketchBitIdenticalState) {
  Random splitter(17);
  for (bool small_params : {true, false}) {
    for (int trial = 0; trial < 4; ++trial) {
      StreamSpec spec;
      spec.distribution = trial % 2 == 0 ? "uniform" : "gaussian";
      spec.n = 20000 + static_cast<std::size_t>(splitter.UniformUint64(5000));
      spec.seed = 300 + static_cast<std::uint64_t>(trial);
      std::vector<Value> stream = GenerateStream(spec).values();

      UnknownNSketch elementwise = MakeUnknownN(9 + trial, small_params);
      UnknownNSketch batched = MakeUnknownN(9 + trial, small_params);

      for (Value v : stream) elementwise.Add(v);
      std::size_t pos = 0;
      for (std::size_t chunk : RandomSplits(stream.size(), 700, &splitter)) {
        batched.AddBatch(
            std::span<const Value>(stream.data() + pos, chunk));
        pos += chunk;
      }

      // Strongest possible equivalence: the full checkpoint encodings —
      // parameters, counters, sampler (with RNG state and in-flight
      // block), and every buffer — must agree byte for byte.
      EXPECT_EQ(elementwise.Serialize(), batched.Serialize())
          << "small=" << small_params << " trial " << trial;
      EXPECT_EQ(elementwise.count(), batched.count());
      EXPECT_EQ(elementwise.sampling_rate(), batched.sampling_rate());
      EXPECT_EQ(elementwise.tree_stats().num_collapses,
                batched.tree_stats().num_collapses);
      EXPECT_EQ(elementwise.tree_stats().leaves_created,
                batched.tree_stats().leaves_created);
      EXPECT_EQ(elementwise.tree_stats().max_level,
                batched.tree_stats().max_level);

      const std::vector<double> phis = {0.01, 0.1, 0.25, 0.5,
                                        0.75, 0.9, 0.99};
      auto qa = elementwise.QueryMany(phis);
      auto qb = batched.QueryMany(phis);
      ASSERT_TRUE(qa.ok());
      ASSERT_TRUE(qb.ok());
      EXPECT_EQ(qa.value(), qb.value());
    }
  }
}

TEST(BatchEquivalenceTest, UnknownNSketchSingleGiantBatch) {
  StreamSpec spec;
  spec.n = 50000;
  spec.seed = 11;
  std::vector<Value> stream = GenerateStream(spec).values();

  UnknownNSketch elementwise = MakeUnknownN(3, /*small_params=*/true);
  UnknownNSketch batched = MakeUnknownN(3, /*small_params=*/true);
  for (Value v : stream) elementwise.Add(v);
  batched.AddBatch(stream);
  EXPECT_EQ(elementwise.Serialize(), batched.Serialize());
}

// ------------------------------------------------------------- KnownNSketch

TEST(BatchEquivalenceTest, KnownNSketchBitIdenticalState) {
  Random splitter(23);
  StreamSpec spec;
  spec.n = 30000;
  spec.seed = 4;
  std::vector<Value> stream = GenerateStream(spec).values();

  KnownNOptions options;
  options.eps = 0.01;
  options.delta = 1e-4;
  options.n = std::uint64_t{1} << 30;  // sampling active (rate > 1)
  options.seed = 5;
  KnownNSketch elementwise = std::move(KnownNSketch::Create(options)).value();
  KnownNSketch batched = std::move(KnownNSketch::Create(options)).value();
  ASSERT_GT(elementwise.params().rate, 1u);

  for (Value v : stream) elementwise.Add(v);
  std::size_t pos = 0;
  for (std::size_t chunk : RandomSplits(stream.size(), 997, &splitter)) {
    batched.AddBatch(std::span<const Value>(stream.data() + pos, chunk));
    pos += chunk;
  }
  EXPECT_EQ(elementwise.Serialize(), batched.Serialize());
}

// ------------------------------------------------------------------- Apps

TEST(BatchEquivalenceTest, OnlineAggregatorHistoryMatches) {
  Random splitter(53);
  StreamSpec spec;
  spec.n = 25000;
  spec.seed = 8;
  std::vector<Value> stream = GenerateStream(spec).values();

  OnlineAggregator::Options options;
  options.report_every = 1000;
  options.seed = 21;
  OnlineAggregator elementwise =
      std::move(OnlineAggregator::Create(options)).value();
  OnlineAggregator batched =
      std::move(OnlineAggregator::Create(options)).value();

  for (Value v : stream) elementwise.Add(v);
  std::size_t pos = 0;
  for (std::size_t chunk : RandomSplits(stream.size(), 2600, &splitter)) {
    batched.AddBatch(std::span<const Value>(stream.data() + pos, chunk));
    pos += chunk;
  }

  ASSERT_EQ(elementwise.history().size(), batched.history().size());
  for (std::size_t i = 0; i < elementwise.history().size(); ++i) {
    EXPECT_EQ(elementwise.history()[i].rows_seen,
              batched.history()[i].rows_seen);
    EXPECT_EQ(elementwise.history()[i].estimates,
              batched.history()[i].estimates);
  }
}

TEST(BatchEquivalenceTest, EquiDepthHistogramMatches) {
  StreamSpec spec;
  spec.distribution = "exponential";
  spec.n = 15000;
  spec.seed = 9;
  std::vector<Value> stream = GenerateStream(spec).values();

  EquiDepthHistogram::Options options;
  options.num_buckets = 8;
  options.seed = 33;
  EquiDepthHistogram elementwise =
      std::move(EquiDepthHistogram::Create(options)).value();
  EquiDepthHistogram batched =
      std::move(EquiDepthHistogram::Create(options)).value();

  for (Value v : stream) elementwise.Add(v);
  batched.AddBatch(stream);

  EXPECT_EQ(elementwise.Boundaries().value(), batched.Boundaries().value());
  auto ba = elementwise.Buckets().value();
  auto bb = batched.Buckets().value();
  ASSERT_EQ(ba.size(), bb.size());
  for (std::size_t i = 0; i < ba.size(); ++i) {
    EXPECT_EQ(ba[i].lo, bb[i].lo);
    EXPECT_EQ(ba[i].hi, bb[i].hi);
  }
}

TEST(BatchEquivalenceTest, SelectivityEstimatorMatches) {
  StreamSpec spec;
  spec.n = 12000;
  spec.seed = 10;
  std::vector<Value> stream = GenerateStream(spec).values();

  SelectivityEstimator::Options options;
  options.seed = 44;
  SelectivityEstimator elementwise =
      std::move(SelectivityEstimator::Create(options)).value();
  SelectivityEstimator batched =
      std::move(SelectivityEstimator::Create(options)).value();

  for (Value v : stream) elementwise.Add(v);
  batched.AddBatch(stream);

  EXPECT_EQ(elementwise.count(), batched.count());
  for (Value c : {0.1, 0.5, 0.9}) {
    EXPECT_EQ(elementwise.LessOrEqual(c).value(),
              batched.LessOrEqual(c).value());
  }
}

// --------------------------------------------- interface-level backend sweep

// Every backend below, driven purely through the QuantileEstimator
// interface: AddBatch over ANY chunking must match element-wise Add —
// bit-identical serialized state for the checkpointing backends, identical
// answers for all. The server's batch ingestion path (registry AddBatch)
// relies on it for the unknown-N sketch.
TEST(BatchEquivalenceTest, EveryBackendAddBatchBitIdenticalToAdd) {
  struct Backend {
    const char* name;
    std::function<std::unique_ptr<QuantileEstimator>(std::uint64_t)> make;
  };
  std::vector<Backend> backends;
  backends.push_back({"unknown_n", [](std::uint64_t seed) {
    UnknownNOptions options;
    options.eps = 0.05;
    options.delta = 1e-3;
    options.seed = seed;
    return std::unique_ptr<QuantileEstimator>(new UnknownNSketch(
        std::move(UnknownNSketch::Create(options)).value()));
  }});
  backends.push_back({"known_n", [](std::uint64_t seed) {
    KnownNOptions options;
    options.eps = 0.02;
    options.delta = 1e-3;
    options.n = std::uint64_t{1} << 20;
    options.seed = seed;
    return std::unique_ptr<QuantileEstimator>(
        new KnownNSketch(std::move(KnownNSketch::Create(options)).value()));
  }});
  backends.push_back({"extreme_value", [](std::uint64_t seed) {
    ExtremeValueOptions options;
    options.phi = 0.05;
    options.eps = 0.01;
    options.delta = 1e-3;
    options.n = 100000;
    options.seed = seed;
    return std::unique_ptr<QuantileEstimator>(new ExtremeValueSketch(
        std::move(ExtremeValueSketch::Create(options)).value()));
  }});
  // The KLL comparator and the deterministic baselines have no checkpoint format (Serialize is empty); the answer
  // comparison below is what covers them.
  backends.push_back({"kll", [](std::uint64_t seed) {
    KllOptions options;
    options.eps = 0.02;
    options.delta = 1e-3;
    options.seed = seed;
    return std::unique_ptr<QuantileEstimator>(
        new KllSketch(std::move(KllSketch::Create(options)).value()));
  }});
  backends.push_back({"ars", [](std::uint64_t) {
    ArsSketch::Options options;
    options.eps = 0.02;
    options.n = 30000;
    return std::unique_ptr<QuantileEstimator>(
        new ArsSketch(std::move(ArsSketch::Create(options)).value()));
  }});
  backends.push_back({"munro_paterson", [](std::uint64_t) {
    MunroPatersonSketch::Options options;
    options.eps = 0.02;
    options.n = 30000;
    return std::unique_ptr<QuantileEstimator>(new MunroPatersonSketch(
        std::move(MunroPatersonSketch::Create(options)).value()));
  }});

  Random splitter(61);
  for (const Backend& backend : backends) {
    SCOPED_TRACE(backend.name);
    for (int trial = 0; trial < 3; ++trial) {
      StreamSpec spec;
      spec.distribution = trial % 2 == 0 ? "uniform" : "gaussian";
      spec.n = 25000 + static_cast<std::size_t>(splitter.UniformUint64(5000));
      spec.seed = 500 + static_cast<std::uint64_t>(trial);
      const std::vector<Value> stream = GenerateStream(spec).values();

      std::unique_ptr<QuantileEstimator> elementwise =
          backend.make(9 + static_cast<std::uint64_t>(trial));
      std::unique_ptr<QuantileEstimator> batched =
          backend.make(9 + static_cast<std::uint64_t>(trial));

      for (Value v : stream) elementwise->Add(v);
      std::size_t pos = 0;
      for (std::size_t chunk : RandomSplits(stream.size(), 800, &splitter)) {
        batched->AddBatch(
            std::span<const Value>(stream.data() + pos, chunk));
        pos += chunk;
      }

      EXPECT_EQ(elementwise->count(), batched->count()) << "trial " << trial;
      EXPECT_EQ(elementwise->Serialize(), batched->Serialize())
          << "trial " << trial;
      const std::vector<double> phis = {0.01, 0.25, 0.5, 0.75, 0.99};
      Result<std::vector<Value>> want = elementwise->QueryMany(phis);
      Result<std::vector<Value>> got = batched->QueryMany(phis);
      ASSERT_EQ(want.ok(), got.ok()) << "trial " << trial;
      if (want.ok()) {
        EXPECT_EQ(want.value(), got.value()) << "trial " << trial;
      }
    }
  }
}

// ---------------------------------------------------- validation regression

TEST(BatchEquivalenceDeathTest, BlockSamplerRejectsRateZero) {
  EXPECT_DEATH(BlockSampler(Random(1), /*rate=*/0), "rate");
  BlockSampler sampler(Random(1), 2);
  EXPECT_DEATH(sampler.SetRate(0), "rate");
}

}  // namespace
}  // namespace mrl
