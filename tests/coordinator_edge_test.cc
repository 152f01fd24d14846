// Edge cases of the Section 6 coordinator's partial-buffer staging rules
// and the framework introspection surface.

#include <vector>

#include <gtest/gtest.h>

#include "core/collapse_policy.h"
#include "core/framework.h"
#include "core/parallel.h"
#include "core/weighted_merge.h"
#include "stream/dataset.h"

namespace mrl {
namespace {

UnknownNParams TinyParams(std::size_t k) {
  UnknownNParams p;
  p.b = 3;
  p.k = k;
  p.h = 2;
  p.alpha = 0.5;
  return p;
}

TEST(CoordinatorEdgeTest, StagingPromotesOnExactFill) {
  ParallelCoordinator coordinator(TinyParams(4), 1);
  // Two 2-element partials of equal weight fill B0 exactly once.
  coordinator.Ingest({{{4.0, 3.0}, 5, false}});
  coordinator.Ingest({{{2.0, 1.0}, 5, false}});
  // The promoted buffer must answer as a weight-5 run over {1,2,3,4}.
  EXPECT_DOUBLE_EQ(coordinator.Query(0.5).value(), 2.0);
  EXPECT_DOUBLE_EQ(coordinator.Query(1.0).value(), 4.0);
  EXPECT_EQ(coordinator.ReceivedWeight(), 20u);
}

TEST(CoordinatorEdgeTest, StagingCarriesRemainderAcrossPromotion) {
  ParallelCoordinator coordinator(TinyParams(4), 1);
  // 3 staged + 3 incoming = 6: one promotion of 4, remainder of 2 stays.
  coordinator.Ingest({{{1.0, 2.0, 3.0}, 2, false}});
  coordinator.Ingest({{{4.0, 5.0, 6.0}, 2, false}});
  EXPECT_DOUBLE_EQ(coordinator.Query(1.0).value(), 6.0);
  EXPECT_DOUBLE_EQ(coordinator.Query(1e-9).value(), 1.0);
}

TEST(CoordinatorEdgeTest, ManySmallPartialsSameWeight) {
  ParallelCoordinator coordinator(TinyParams(3), 2);
  for (int i = 0; i < 20; ++i) {
    coordinator.Ingest({{{static_cast<Value>(i)}, 1, false}});
  }
  EXPECT_EQ(coordinator.ReceivedWeight(), 20u);
  Value med = coordinator.Query(0.5).value();
  EXPECT_GE(med, 4.0);
  EXPECT_LE(med, 15.0);
}

TEST(CoordinatorEdgeTest, HeavierIncomingShrinksStaging) {
  // Staging holds weight-1 elements; a weight-8 partial arrives. The
  // staging must be subsampled (keep ~1/8) and re-weighted to 8; total
  // represented weight stays ~constant in expectation.
  ParallelCoordinator coordinator(TinyParams(64), 7);
  std::vector<Value> light;
  for (int i = 0; i < 40; ++i) light.push_back(i);
  coordinator.Ingest({{light, 1, false}});
  coordinator.Ingest({{{1000.0, 1001.0}, 8, false}});
  EXPECT_EQ(coordinator.ReceivedWeight(), 40u + 16u);
  // Querying still works and the top quantile comes from the heavy batch.
  EXPECT_GE(coordinator.Query(1.0).value(), 1000.0);
}

TEST(CoordinatorEdgeTest, FinishAndExportShipsKOneCandidateAsFull) {
  // With k = 1 the worker's in-flight block candidate alone fills a
  // buffer, so it must ship tagged full; a partial tag aborted Ingest.
  UnknownNParams params = TinyParams(1);
  params.b = 2;
  params.h = 1;
  UnknownNOptions options;
  options.params = params;
  options.seed = 3;
  UnknownNSketch worker = std::move(UnknownNSketch::Create(options)).value();
  for (int i = 0; i < 7; ++i) worker.Add(static_cast<Value>(i));
  ParallelCoordinator coordinator(params, 1);
  coordinator.Ingest(worker.FinishAndExport());
  EXPECT_EQ(coordinator.ReceivedWeight(), 7u);
  EXPECT_TRUE(coordinator.Query(0.5).ok());
}

TEST(CoordinatorEdgeTest, MixedFullAndPartialInOneShipment) {
  ParallelCoordinator coordinator(TinyParams(2), 3);
  coordinator.Ingest({
      {{1.0, 2.0}, 4, true},    // full (k = 2)
      {{9.0}, 4, false},        // partial
      {{5.0}, 1, false},        // tail with a different weight
  });
  EXPECT_EQ(coordinator.ReceivedWeight(), 8u + 4u + 1u);
  EXPECT_TRUE(coordinator.Query(0.5).ok());
}

TEST(CoordinatorEdgeTest, ExtremeWeightRatioReconciliation) {
  // Weight-1 staging meets a weight-1000 partial: the staging survives
  // Bernoulli(1/1000) subsampling essentially never, but the *accounted*
  // weight must stay within the reconciliation's drift bound — the drift
  // per reconciliation is at most the lighter buffer's total weight.
  const Weight heavy = 1000;
  std::vector<Value> light;
  for (int i = 0; i < 30; ++i) light.push_back(static_cast<Value>(i));
  const Weight light_total = 1 * light.size();

  ParallelCoordinator coordinator(TinyParams(64), 123);
  coordinator.Ingest({{light, 1, false}});
  coordinator.Ingest({{{5000.0, 6000.0}, heavy, false}});

  // Accounting is exact: ReceivedWeight sums raw incoming weight before
  // reconciliation. The drift lives in the *represented* multiset (the
  // staging subsample), bounded below via the quantile assertions.
  EXPECT_EQ(coordinator.ReceivedWeight(), light_total + heavy * 2);
  // The heavy elements carry 2000 of 2030 total weight (~98.5%); every
  // quantile above the light mass must come from them, whatever the
  // Bernoulli draw did to the 30 light survivors.
  EXPECT_GE(coordinator.Query(0.9).value(), 5000.0);
  EXPECT_LE(coordinator.Query(0.9).value(), 6000.0);
}

TEST(CoordinatorEdgeTest, LighterBufferOfSizeOneAtExtremeRatio) {
  // The degenerate reconciliation: a single weight-1 element against
  // weight-1000 incoming. Whatever the Bernoulli draw does, the
  // coordinator must stay legal (staging < k, weight consistent) and
  // queryable, and accounting drift is bounded by the heavy weight.
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    ParallelCoordinator coordinator(TinyParams(8), seed);
    coordinator.Ingest({{{7.0}, 1, false}});
    coordinator.Ingest({{{9999.0}, 1000, false}});
    EXPECT_EQ(coordinator.ReceivedWeight(), 1001u) << "seed=" << seed;
    Result<Value> top = coordinator.Query(1.0);
    ASSERT_TRUE(top.ok()) << "seed=" << seed;
    EXPECT_DOUBLE_EQ(top.value(), 9999.0) << "seed=" << seed;
    // The light element survives the 1/1000 draw essentially never; when
    // it does it is re-weighted to 1000, so the median may legitimately
    // be either element — but never anything else.
    Value median = coordinator.Query(0.5).value();
    EXPECT_TRUE(median == 9999.0 || median == 7.0) << "seed=" << seed;
  }
}

TEST(CoordinatorEdgeTest, ReverseExtremeRatioKeepsHeavyStaging) {
  // Mirror case: heavy staging, light incoming. The incoming weight-1
  // buffer is the lighter side and gets subsampled at 1/1000; the heavy
  // staged elements must never be disturbed.
  ParallelCoordinator coordinator(TinyParams(64), 9);
  coordinator.Ingest({{{100.0, 200.0, 300.0}, 1000, false}});
  std::vector<Value> light;
  for (int i = 0; i < 50; ++i) light.push_back(static_cast<Value>(i));
  coordinator.Ingest({{light, 1, false}});
  // The three heavy values carry 3000 of ~3050 total weight; the median
  // must be one of them regardless of the subsample outcome.
  Value median = coordinator.Query(0.5).value();
  EXPECT_TRUE(median == 100.0 || median == 200.0 || median == 300.0)
      << median;
}

TEST(CoordinatorEdgeTest, EmptyShipmentsAreHarmless) {
  ParallelCoordinator coordinator(TinyParams(4), 1);
  coordinator.Ingest({});
  coordinator.Ingest({{{}, 3, false}});  // empty value list
  EXPECT_EQ(coordinator.ReceivedWeight(), 0u);
  EXPECT_EQ(coordinator.Query(0.5).status().code(),
            StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------------ DebugString

TEST(DebugStringTest, DescribesPoolAndCounters) {
  CollapseFramework fw(3, 2, MakeCollapsePolicy(CollapsePolicyKind::kMrl));
  fw.IngestFull({1.0, 2.0}, 4, 1);
  std::string s = fw.DebugString();
  EXPECT_NE(s.find("b=3"), std::string::npos) << s;
  EXPECT_NE(s.find("k=2"), std::string::npos);
  EXPECT_NE(s.find("full level=1 weight=4 size=2/2"), std::string::npos)
      << s;
  EXPECT_NE(s.find("[1] empty"), std::string::npos);
}

// --------------------------------------------------- Huge-weight merging

TEST(HugeWeightTest, WeightedSelectionNearOverflowBoundary) {
  // Weights near 2^61: cumulative arithmetic must not wrap for realistic
  // stream lengths (the sketch's rates cap at 2^62 by CHECK).
  const Weight w = Weight{1} << 61;
  std::vector<Value> a = {1.0, 2.0};
  std::vector<WeightedRun> runs = {{a.data(), a.size(), w}};
  EXPECT_EQ(TotalRunWeight(runs), 2 * w);
  std::vector<Weight> targets = {1, w, w + 1, 2 * w};
  std::vector<Value> out = SelectWeightedPositions(runs, targets);
  EXPECT_EQ(out, (std::vector<Value>{1.0, 1.0, 2.0, 2.0}));
}

}  // namespace
}  // namespace mrl
