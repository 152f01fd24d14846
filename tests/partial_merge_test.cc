// Partial-summary export, wire round-trip, and Section 6 merge rules
// (core/partial.h) — including the degenerate merges a router must
// survive: a single partial, partials with empty buffer sets, and
// summaries produced by sketches with mismatched tree heights.

#include "core/partial.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/unknown_n.h"
#include "gtest/gtest.h"
#include "util/random.h"

namespace mrl {
namespace {

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

UnknownNSketch MakeSketch(double eps, double delta, std::uint64_t seed) {
  UnknownNOptions options;
  options.eps = eps;
  options.delta = delta;
  options.seed = seed;
  Result<UnknownNSketch> sketch = UnknownNSketch::Create(options);
  EXPECT_TRUE(sketch.ok()) << sketch.status().ToString();
  return std::move(sketch).value();
}

TEST(PartialSummaryTest, SerializeRoundTrip) {
  UnknownNSketch sketch = MakeSketch(0.05, 1e-3, 7);
  const std::vector<Value> data = UniformStream(10000, 42);
  sketch.AddBatch(data);

  PartialSummary summary;
  ASSERT_TRUE(sketch.ExportPartial(&summary).ok());
  EXPECT_EQ(summary.count, data.size());
  EXPECT_FALSE(summary.buffers.empty());

  std::vector<std::uint8_t> blob;
  SerializePartialSummary(summary, &blob);
  Result<PartialSummary> restored = DeserializePartialSummary(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  EXPECT_EQ(restored.value().params.b, summary.params.b);
  EXPECT_EQ(restored.value().params.k, summary.params.k);
  EXPECT_EQ(restored.value().params.h, summary.params.h);
  EXPECT_EQ(restored.value().count, summary.count);
  ASSERT_EQ(restored.value().buffers.size(), summary.buffers.size());
  for (std::size_t i = 0; i < summary.buffers.size(); ++i) {
    EXPECT_EQ(restored.value().buffers[i].values, summary.buffers[i].values);
    EXPECT_EQ(restored.value().buffers[i].weight, summary.buffers[i].weight);
    EXPECT_EQ(restored.value().buffers[i].full, summary.buffers[i].full);
  }
}

TEST(PartialSummaryTest, ExportIsNonDestructive) {
  UnknownNSketch sketch = MakeSketch(0.05, 1e-3, 7);
  sketch.AddBatch(UniformStream(5000, 9));
  const Result<Value> before = sketch.Query(0.5);
  PartialSummary summary;
  ASSERT_TRUE(sketch.ExportPartial(&summary).ok());
  const Result<Value> after = sketch.Query(0.5);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before.value(), after.value());
  // And the sketch keeps ingesting normally.
  sketch.AddBatch(UniformStream(5000, 10));
  EXPECT_EQ(sketch.count(), 10000u);
}

// Degenerate merge: exactly one partial summary. The answer must carry the
// producing sketch's eps guarantee.
TEST(PartialMergeTest, SinglePartialMatchesDirectSketch) {
  constexpr double kEps = 0.05;
  constexpr std::size_t kN = 50000;
  UnknownNSketch sketch = MakeSketch(kEps, 1e-3, 3);
  std::vector<Value> data = UniformStream(kN, 11);
  sketch.AddBatch(data);

  PartialSummary summary;
  ASSERT_TRUE(sketch.ExportPartial(&summary).ok());

  const std::vector<double> phis = {0.05, 0.25, 0.5, 0.75, 0.95};
  Result<std::vector<Value>> merged = MergePartialQuantiles({summary}, 99,
                                                            phis);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  std::sort(data.begin(), data.end());
  for (std::size_t i = 0; i < phis.size(); ++i) {
    EXPECT_NEAR(RankOf(data, merged.value()[i]), phis[i], 2 * kEps)
        << "phi=" << phis[i];
  }
}

TEST(PartialMergeTest, MultiWayMergeIsAccurate) {
  constexpr double kEps = 0.05;
  constexpr int kWorkers = 3;
  constexpr std::size_t kPerWorker = 30000;

  std::vector<PartialSummary> parts;
  std::vector<Value> all;
  for (int w = 0; w < kWorkers; ++w) {
    UnknownNSketch sketch = MakeSketch(kEps, 1e-3, 100 + w);
    const std::vector<Value> data = UniformStream(kPerWorker, 500 + w);
    sketch.AddBatch(data);
    all.insert(all.end(), data.begin(), data.end());
    PartialSummary summary;
    ASSERT_TRUE(sketch.ExportPartial(&summary).ok());
    parts.push_back(std::move(summary));
  }

  const std::vector<double> phis = {0.1, 0.5, 0.9};
  Result<std::vector<Value>> merged = MergePartialQuantiles(parts, 1, phis);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < phis.size(); ++i) {
    EXPECT_NEAR(RankOf(all, merged.value()[i]), phis[i], 2 * kEps)
        << "phi=" << phis[i];
  }
}

// Degenerate merge: summaries whose buffer lists are empty (freshly created
// sketches) must not fail the merge as long as one summary holds data —
// and an all-empty merge is a clean FailedPrecondition, not a crash.
TEST(PartialMergeTest, EmptyBufferPartials) {
  UnknownNSketch empty1 = MakeSketch(0.05, 1e-3, 1);
  UnknownNSketch empty2 = MakeSketch(0.05, 1e-3, 2);
  UnknownNSketch loaded = MakeSketch(0.05, 1e-3, 3);
  std::vector<Value> data = UniformStream(20000, 21);
  loaded.AddBatch(data);

  PartialSummary p_empty1, p_empty2, p_loaded;
  ASSERT_TRUE(empty1.ExportPartial(&p_empty1).ok());
  ASSERT_TRUE(empty2.ExportPartial(&p_empty2).ok());
  ASSERT_TRUE(loaded.ExportPartial(&p_loaded).ok());
  EXPECT_TRUE(p_empty1.buffers.empty());

  Result<std::vector<Value>> merged = MergePartialQuantiles(
      {p_empty1, p_loaded, p_empty2}, 5, {0.5});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  std::sort(data.begin(), data.end());
  EXPECT_NEAR(RankOf(data, merged.value()[0]), 0.5, 0.1);

  Result<std::vector<Value>> all_empty = MergePartialQuantiles(
      {p_empty1, p_empty2}, 5, {0.5});
  ASSERT_FALSE(all_empty.ok());
  EXPECT_EQ(all_empty.status().code(), StatusCode::kFailedPrecondition);

  Result<std::vector<Value>> none = MergePartialQuantiles({}, 5, {0.5});
  ASSERT_FALSE(none.ok());
}

// Degenerate merge: producers solved with different (eps, delta) have
// different tree heights and buffer counts. Merging is defined whenever k
// agrees; mismatched k must be a clean error.
TEST(PartialMergeTest, MismatchedHeights) {
  UnknownNSketch a = MakeSketch(0.05, 1e-3, 1);
  UnknownNSketch b = MakeSketch(0.05, 1e-5, 2);  // deeper tree, same story
  std::vector<Value> data_a = UniformStream(20000, 31);
  std::vector<Value> data_b = UniformStream(20000, 32);
  a.AddBatch(data_a);
  b.AddBatch(data_b);

  PartialSummary pa, pb;
  ASSERT_TRUE(a.ExportPartial(&pa).ok());
  ASSERT_TRUE(b.ExportPartial(&pb).ok());

  if (pa.params.k == pb.params.k) {
    Result<std::vector<Value>> merged = MergePartialQuantiles({pa, pb}, 3,
                                                              {0.5});
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    std::vector<Value> all = data_a;
    all.insert(all.end(), data_b.begin(), data_b.end());
    std::sort(all.begin(), all.end());
    EXPECT_NEAR(RankOf(all, merged.value()[0]), 0.5, 0.15);
  }

  // Force a k mismatch and require a clean InvalidArgument.
  pb.params.k = pa.params.k + 1;
  Result<std::vector<Value>> mismatched = MergePartialQuantiles({pa, pb}, 3,
                                                                {0.5});
  ASSERT_FALSE(mismatched.ok());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kInvalidArgument);
}

TEST(PartialSummaryTest, HostileBlobsAreCleanErrors) {
  UnknownNSketch sketch = MakeSketch(0.05, 1e-3, 7);
  sketch.AddBatch(UniformStream(10000, 42));
  PartialSummary summary;
  ASSERT_TRUE(sketch.ExportPartial(&summary).ok());
  std::vector<std::uint8_t> good;
  SerializePartialSummary(summary, &good);

  // Truncations at every length must fail cleanly.
  for (std::size_t n = 0; n < good.size(); n += 7) {
    EXPECT_FALSE(
        DeserializePartialSummary(std::span<const std::uint8_t>(good.data(),
                                                                n))
            .ok())
        << "truncated to " << n;
  }

  std::vector<std::uint8_t> bad = good;
  bad[0] ^= 0xFF;  // magic
  EXPECT_FALSE(DeserializePartialSummary(bad).ok());

  bad = good;
  bad[4] = 0x7F;  // version
  EXPECT_FALSE(DeserializePartialSummary(bad).ok());

  // Trailing garbage is rejected.
  bad = good;
  bad.push_back(0);
  EXPECT_FALSE(DeserializePartialSummary(bad).ok());

  // An empty buffer is a valid summary (no payload after the header).
  PartialSummary empty;
  empty.params = summary.params;
  empty.count = 0;
  std::vector<std::uint8_t> empty_blob;
  SerializePartialSummary(empty, &empty_blob);
  EXPECT_TRUE(DeserializePartialSummary(empty_blob).ok());
}

}  // namespace
}  // namespace mrl
