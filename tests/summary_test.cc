#include <vector>

#include <gtest/gtest.h>

#include "core/extreme.h"
#include "core/known_n.h"
#include "core/summary.h"
#include "core/unknown_n.h"
#include "stream/generator.h"
#include "util/serde.h"

namespace mrl {
namespace {

// ----------------------------------------------------------------- Summary

TEST(SummaryTest, FromRunsCoalescesAndAccumulates) {
  std::vector<Value> a = {1, 2, 2, 5};
  std::vector<Value> b = {2, 3};
  std::vector<WeightedRun> runs = {{a.data(), a.size(), 2},
                                   {b.data(), b.size(), 3}};
  QuantileSummary s = QuantileSummary::FromRuns(runs);
  // Expanded: 1(w2), 2(w2+2+3=7), 3(w3), 5(w2); cum: 2, 9, 12, 14.
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.total_weight(), 14u);
  EXPECT_DOUBLE_EQ(s.entries()[1].value, 2.0);
  EXPECT_EQ(s.entries()[1].cumulative_weight, 9u);
}

TEST(SummaryTest, QuantileAndRankAgreeWithWeightedOps) {
  StreamSpec spec;
  spec.n = 30000;
  spec.seed = 3;
  Dataset ds = GenerateStream(spec);
  UnknownNOptions options;
  options.eps = 0.02;
  options.seed = 5;
  UnknownNSketch sketch = std::move(UnknownNSketch::Create(options)).value();
  for (Value v : ds.values()) sketch.Add(v);
  QuantileSummary summary = sketch.ExportSummary();
  EXPECT_EQ(summary.total_weight(), ds.size());
  for (double phi : {0.1, 0.5, 0.9}) {
    EXPECT_DOUBLE_EQ(summary.Quantile(phi).value(),
                     sketch.Query(phi).value());
  }
  for (Value c : {0.2, 0.5, 0.8}) {
    EXPECT_DOUBLE_EQ(summary.Rank(c).value(), sketch.RankOf(c).value());
  }
}

TEST(SummaryTest, SnapshotIsDecoupledFromLiveSketch) {
  UnknownNOptions options;
  options.eps = 0.05;
  UnknownNSketch sketch = std::move(UnknownNSketch::Create(options)).value();
  for (int i = 0; i < 1000; ++i) sketch.Add(i);
  QuantileSummary summary = sketch.ExportSummary();
  Value before = summary.Quantile(0.5).value();
  for (int i = 1000; i < 5000; ++i) sketch.Add(10 * i);
  EXPECT_DOUBLE_EQ(summary.Quantile(0.5).value(), before)
      << "the snapshot must not see later inserts";
  EXPECT_EQ(summary.total_weight(), 1000u);
}

TEST(SummaryTest, RankEdges) {
  std::vector<Value> a = {10, 20, 30};
  std::vector<WeightedRun> runs = {{a.data(), a.size(), 1}};
  QuantileSummary s = QuantileSummary::FromRuns(runs);
  EXPECT_DOUBLE_EQ(s.Rank(5).value(), 0.0);
  EXPECT_DOUBLE_EQ(s.Rank(10).value(), 1.0 / 3);
  EXPECT_DOUBLE_EQ(s.Rank(25).value(), 2.0 / 3);
  EXPECT_DOUBLE_EQ(s.Rank(99).value(), 1.0);
}

TEST(SummaryTest, CdfPointsAreMonotone) {
  StreamSpec spec;
  spec.n = 5000;
  spec.seed = 9;
  Dataset ds = GenerateStream(spec);
  UnknownNOptions options;
  options.eps = 0.05;
  UnknownNSketch sketch = std::move(UnknownNSketch::Create(options)).value();
  for (Value v : ds.values()) sketch.Add(v);
  auto cdf = sketch.ExportSummary().CdfPoints(20).value();
  ASSERT_EQ(cdf.size(), 20u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].first, cdf[i].first);
    EXPECT_LT(cdf[i - 1].second, cdf[i].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(SummaryTest, EmptySummaryFailsQueries) {
  QuantileSummary s;
  EXPECT_EQ(s.Quantile(0.5).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(s.Rank(1.0).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(s.CdfPoints(10).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(s.CdfPoints(1).status().code(), StatusCode::kInvalidArgument);
}

TEST(SummaryTest, SerializationRoundTrip) {
  std::vector<Value> a = {1, 2, 3, 4};
  std::vector<WeightedRun> runs = {{a.data(), a.size(), 7}};
  QuantileSummary s = QuantileSummary::FromRuns(runs);
  std::vector<std::uint8_t> bytes;
  BinaryWriter w(&bytes);
  s.SerializeTo(&w);
  BinaryReader r(bytes);
  QuantileSummary restored =
      std::move(QuantileSummary::DeserializeFrom(&r)).value();
  EXPECT_EQ(restored.size(), s.size());
  EXPECT_EQ(restored.total_weight(), s.total_weight());
  EXPECT_DOUBLE_EQ(restored.Quantile(0.5).value(),
                   s.Quantile(0.5).value());
}

TEST(SummaryTest, DeserializeRejectsNonMonotone) {
  std::vector<std::uint8_t> bytes;
  BinaryWriter w(&bytes);
  w.PutU64(2);
  w.PutDouble(5.0);
  w.PutU64(10);
  w.PutDouble(4.0);  // values must ascend
  w.PutU64(20);
  BinaryReader r(bytes);
  EXPECT_FALSE(QuantileSummary::DeserializeFrom(&r).ok());
}

// ------------------------------------------- KnownN / Extreme checkpoints

TEST(KnownNCheckpointTest, RoundTripMidStream) {
  KnownNParams p;
  p.b = 4;
  p.k = 64;
  p.h = 5;
  p.rate = 4;
  p.alpha = 0.5;
  p.n = 100000;
  KnownNOptions options;
  options.params = p;
  options.seed = 11;
  KnownNSketch original = std::move(KnownNSketch::Create(options)).value();
  StreamSpec spec;
  spec.n = 100000;
  spec.seed = 13;
  Dataset ds = GenerateStream(spec);
  const std::size_t cut = 34567;
  for (std::size_t i = 0; i < cut; ++i) original.Add(ds.values()[i]);

  Result<KnownNSketch> restored_r =
      KnownNSketch::Deserialize(original.Serialize());
  ASSERT_TRUE(restored_r.ok()) << restored_r.status();
  KnownNSketch& restored = restored_r.value();
  for (std::size_t i = cut; i < ds.size(); ++i) {
    original.Add(ds.values()[i]);
    restored.Add(ds.values()[i]);
  }
  EXPECT_EQ(restored.HeldWeight(), ds.size());
  for (double phi : {0.1, 0.5, 0.9}) {
    EXPECT_DOUBLE_EQ(restored.Query(phi).value(),
                     original.Query(phi).value());
  }
}

TEST(KnownNCheckpointTest, KindsAreNotInterchangeable) {
  KnownNParams p;
  p.b = 3;
  p.k = 8;
  p.h = 2;
  p.rate = 1;
  p.alpha = 1.0;
  p.n = 100;
  KnownNOptions options;
  options.params = p;
  KnownNSketch known = std::move(KnownNSketch::Create(options)).value();
  known.Add(1.0);
  // A known-N checkpoint must not deserialize as an unknown-N sketch.
  EXPECT_FALSE(UnknownNSketch::Deserialize(known.Serialize()).ok());
}

TEST(ExtremeCheckpointTest, RoundTripMidStream) {
  ExtremeValueOptions options;
  options.phi = 0.01;
  options.eps = 0.004;
  options.delta = 1e-3;
  options.n = 200000;
  options.seed = 17;
  ExtremeValueSketch original =
      std::move(ExtremeValueSketch::Create(options)).value();
  StreamSpec spec;
  spec.n = 200000;
  spec.seed = 19;
  Dataset ds = GenerateStream(spec);
  const std::size_t cut = 77777;
  for (std::size_t i = 0; i < cut; ++i) original.Add(ds.values()[i]);

  Result<ExtremeValueSketch> restored_r =
      ExtremeValueSketch::Deserialize(original.Serialize());
  ASSERT_TRUE(restored_r.ok()) << restored_r.status();
  ExtremeValueSketch& restored = restored_r.value();
  EXPECT_EQ(restored.count(), original.count());
  EXPECT_EQ(restored.sampled_count(), original.sampled_count());
  for (std::size_t i = cut; i < ds.size(); ++i) {
    original.Add(ds.values()[i]);
    restored.Add(ds.values()[i]);
  }
  EXPECT_DOUBLE_EQ(restored.Query(0.01).value(),
                   original.Query(0.01).value());
}

TEST(ExtremeCheckpointTest, RejectsTruncation) {
  ExtremeValueOptions options;
  options.phi = 0.01;
  options.eps = 0.004;
  options.n = 10000;
  ExtremeValueSketch sketch =
      std::move(ExtremeValueSketch::Create(options)).value();
  for (int i = 0; i < 10000; ++i) sketch.Add(i);
  std::vector<std::uint8_t> bytes = sketch.Serialize();
  for (std::size_t len : {bytes.size() / 3, bytes.size() - 1}) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<long>(len));
    EXPECT_FALSE(ExtremeValueSketch::Deserialize(prefix).ok());
  }
}

}  // namespace
}  // namespace mrl
