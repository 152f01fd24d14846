// Direct tests of the invariant auditor (src/util/audit.h): each checker
// passes on states real executions produce and fails on synthetic
// corruptions of the same states. The checkers are plain Status-returning
// functions in every build mode, so these tests run regardless of
// -DMRLQUANT_AUDIT (which only controls the in-sketch abort hooks).

#include "util/audit.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/buffer.h"
#include "core/collapse_policy.h"
#include "core/framework.h"
#include "core/known_n.h"
#include "core/parallel.h"
#include "core/unknown_n.h"
#include "util/status.h"

namespace mrl {
namespace {

Buffer MakeFullBuffer(std::size_t k, Weight weight, int level) {
  Buffer b(k);
  std::vector<Value> sorted;
  sorted.reserve(k);
  for (std::size_t i = 0; i < k; ++i) sorted.push_back(static_cast<Value>(i));
  b.AssignSorted(std::move(sorted), weight, level);
  return b;
}

TEST(CheckBufferTest, AcceptsLegalStates) {
  Buffer empty(8);
  EXPECT_TRUE(audit::CheckBuffer(empty, 0).ok());

  Buffer filling(8);
  filling.StartFill();
  filling.Append(3.0);
  EXPECT_TRUE(audit::CheckBuffer(filling, 1).ok());

  EXPECT_TRUE(audit::CheckBuffer(MakeFullBuffer(8, 4, 2), 2).ok());
}

TEST(CheckBufferTest, RejectsUnsortedFullBuffer) {
  Buffer b(4);
  // AssignSorted DCHECKs that its input is sorted, so a debug build dies
  // here. Release builds trust the caller: there the descending run models
  // a corrupted pool, and the auditor must reject it.
  EXPECT_DEBUG_DEATH(b.AssignSorted({4.0, 3.0, 2.0, 1.0}, 1, 0), "is_sorted");
#ifdef NDEBUG
  Status s = audit::CheckBuffer(b, 0);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("sorted"), std::string::npos) << s;
#endif
}

TEST(CheckFrameworkTest, AcceptsFreshAndWorkedPools) {
  CollapseFramework fresh(5, 16,
                          MakeCollapsePolicy(CollapsePolicyKind::kMrl));
  EXPECT_TRUE(audit::CheckFramework(fresh).ok());

  // Drive enough leaves through a tiny pool to force several collapses.
  CollapseFramework worked(3, 4,
                           MakeCollapsePolicy(CollapsePolicyKind::kMrl));
  for (int leaf = 0; leaf < 10; ++leaf) {
    std::size_t slot = worked.AcquireEmptySlot();
    worked.buffer(slot).StartFill();
    for (int i = 0; i < 4; ++i) {
      worked.buffer(slot).Append(static_cast<Value>(leaf * 4 + i));
    }
    worked.CommitFull(slot, 1, 0);
    EXPECT_TRUE(audit::CheckFramework(worked).ok());
  }
}

TEST(CheckFrameworkTest, RejectsImpossibleTreeCounters) {
  CollapseFramework f(3, 4, MakeCollapsePolicy(CollapsePolicyKind::kMrl));
  // Two full buffers but the stats claim no leaf was ever created: the
  // counters cannot cover the pool.
  f.IngestFull({1.0, 2.0, 3.0, 4.0}, 1, 0);
  f.IngestFull({5.0, 6.0, 7.0, 8.0}, 1, 0);
  Status before = audit::CheckFramework(f);
  ASSERT_TRUE(before.ok()) << before;

  CollapseFramework corrupt(3, 4,
                            MakeCollapsePolicy(CollapsePolicyKind::kMrl));
  corrupt.buffer(0).AssignSorted({1.0, 2.0, 3.0, 4.0}, 1, 5);
  // max_level in stats stays 0 while the buffer claims level 5.
  Status s = audit::CheckFramework(corrupt);
  EXPECT_FALSE(s.ok());
}

TEST(CollapseConservationTest, ExactEqualityRequired) {
  EXPECT_TRUE(audit::CheckCollapseConservation(120, 120).ok());
  EXPECT_FALSE(audit::CheckCollapseConservation(120, 119).ok());
  EXPECT_FALSE(audit::CheckCollapseConservation(120, 121).ok());
}

TEST(WeightConservationTest, ExactEqualityRequired) {
  EXPECT_TRUE(audit::CheckWeightConservation(0, 0).ok());
  EXPECT_TRUE(audit::CheckWeightConservation(1000, 1000).ok());
  Status s = audit::CheckWeightConservation(999, 1000);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("weight was lost or invented"),
            std::string::npos)
      << s;
}

TEST(WeightConservationTest, HoldsOnLiveUnknownNSketch) {
  UnknownNOptions options;
  options.eps = 0.05;
  options.delta = 1e-3;
  Result<UnknownNSketch> sketch = UnknownNSketch::Create(options);
  ASSERT_TRUE(sketch.ok());
  for (int i = 0; i < 50000; ++i) {
    sketch.value().Add(static_cast<Value>(i % 997));
    if (i % 4096 == 0) {
      EXPECT_TRUE(audit::CheckWeightConservation(sketch.value().HeldWeight(),
                                                 sketch.value().count())
                      .ok());
    }
  }
  EXPECT_TRUE(audit::CheckWeightConservation(sketch.value().HeldWeight(),
                                             sketch.value().count())
                  .ok());
}

TEST(WeightConservationTest, HoldsOnLiveKnownNSketch) {
  KnownNOptions options;
  options.eps = 0.05;
  options.delta = 1e-3;
  options.n = 30000;
  Result<KnownNSketch> sketch = KnownNSketch::Create(options);
  ASSERT_TRUE(sketch.ok());
  for (std::uint64_t i = 0; i < options.n; ++i) {
    sketch.value().Add(static_cast<Value>(i));
  }
  EXPECT_TRUE(audit::CheckWeightConservation(sketch.value().HeldWeight(),
                                             options.n)
                  .ok());
}

TEST(UnknownNHeightTest, HoldsOnLiveSketchAndRejectsTightBudget) {
  UnknownNOptions options;
  options.eps = 0.02;
  options.delta = 1e-3;
  Result<UnknownNSketch> sketch = UnknownNSketch::Create(options);
  ASSERT_TRUE(sketch.ok());
  for (int i = 0; i < 300000; ++i) {
    sketch.value().Add(static_cast<Value>(i));
  }
  const UnknownNSketch& s = sketch.value();
  EXPECT_TRUE(audit::CheckUnknownNHeight(s.framework(), s.params().h,
                                         s.sampling_rate())
                  .ok());
  // A rate that is not a power of two is impossible under §3.7.
  EXPECT_FALSE(
      audit::CheckUnknownNHeight(s.framework(), s.params().h, 3).ok());
  if (s.framework().max_level() > 0) {
    // Claiming budget h = -1 with rate 1 must fail once the tree has any
    // height at all.
    EXPECT_FALSE(audit::CheckUnknownNHeight(s.framework(), -1, 1).ok());
  }
}

TEST(KnownNHeightTest, HoldsOnSolverSizedSketch) {
  KnownNOptions options;
  options.eps = 0.05;
  options.delta = 1e-3;
  options.n = 100000;
  Result<KnownNSketch> sketch = KnownNSketch::Create(options);
  ASSERT_TRUE(sketch.ok());
  for (std::uint64_t i = 0; i < options.n; ++i) {
    sketch.value().Add(static_cast<Value>(options.n - i));
  }
  const KnownNSketch& s = sketch.value();
  EXPECT_TRUE(audit::CheckKnownNHeight(s.framework(), s.params().h).ok());
  if (s.framework().max_level() > 0) {
    EXPECT_FALSE(audit::CheckKnownNHeight(s.framework(), -1).ok());
  }
}

TEST(CoordinatorStagingTest, LegalityBounds) {
  // Empty staging carries no weight.
  EXPECT_TRUE(audit::CheckCoordinatorStaging(0, 100, 0).ok());
  // Non-empty staging below k with positive weight is legal.
  EXPECT_TRUE(audit::CheckCoordinatorStaging(99, 100, 7).ok());
  // Staging at or past k must have been promoted.
  EXPECT_FALSE(audit::CheckCoordinatorStaging(100, 100, 7).ok());
  // Non-empty staging with zero weight is illegal.
  EXPECT_FALSE(audit::CheckCoordinatorStaging(5, 100, 0).ok());
  // Empty staging with leftover weight is illegal.
  EXPECT_FALSE(audit::CheckCoordinatorStaging(0, 100, 3).ok());
}

TEST(CoordinatorStagingTest, HoldsAcrossLiveIngest) {
  ParallelOptions options;
  options.eps = 0.05;
  options.delta = 1e-3;
  options.num_workers = 3;
  Result<UnknownNParams> params = SolveParallelWorker(options);
  ASSERT_TRUE(params.ok());
  ParallelCoordinator coordinator(params.value(), /*seed=*/7);
  for (int w = 0; w < options.num_workers; ++w) {
    UnknownNOptions worker_options;
    worker_options.params = params.value();
    worker_options.seed = 100 + static_cast<std::uint64_t>(w);
    Result<UnknownNSketch> worker =
        UnknownNSketch::Create(worker_options);
    ASSERT_TRUE(worker.ok());
    for (int i = 0; i < 20000 + w * 1717; ++i) {
      worker.value().Add(static_cast<Value>(i * (w + 1)));
    }
    coordinator.Ingest(worker.value().FinishAndExport());
  }
  Result<Value> median = coordinator.Query(0.5);
  EXPECT_TRUE(median.ok());
}

}  // namespace
}  // namespace mrl
