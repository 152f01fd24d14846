#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/bounded_heap.h"
#include "util/math.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/status.h"

namespace mrl {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad eps");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad eps");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad eps");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kFailedPrecondition, StatusCode::kOutOfRange,
        StatusCode::kResourceExhausted, StatusCode::kInternal,
        StatusCode::kNotFound, StatusCode::kUnimplemented}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::Internal("x"), Status::Internal("x"));
  EXPECT_FALSE(Status::Internal("x") == Status::Internal("y"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, WorksWithMoveOnlyTypes) {
  struct MoveOnly {
    explicit MoveOnly(int x) : x(x) {}
    MoveOnly(MoveOnly&&) = default;
    MoveOnly& operator=(MoveOnly&&) = default;
    int x;
  };
  Result<MoveOnly> r = MoveOnly(5);
  ASSERT_TRUE(r.ok());
  MoveOnly taken = std::move(r).value();
  EXPECT_EQ(taken.x, 5);
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  auto inner = []() -> Status { return Status::Internal("boom"); };
  auto outer = [&]() -> Status {
    MRL_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------- Math

TEST(MathTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(10, 3), 4u);
  EXPECT_EQ(CeilDiv(9, 3), 3u);
  EXPECT_EQ(CeilDiv(1, 100), 1u);
}

TEST(MathTest, BinomialSmallValues) {
  EXPECT_EQ(SaturatingBinomial(5, 0), 1u);
  EXPECT_EQ(SaturatingBinomial(5, 5), 1u);
  EXPECT_EQ(SaturatingBinomial(5, 2), 10u);
  EXPECT_EQ(SaturatingBinomial(10, 3), 120u);
  EXPECT_EQ(SaturatingBinomial(3, 7), 0u);  // r > n
}

TEST(MathTest, BinomialPascalIdentity) {
  for (std::uint64_t n = 2; n < 40; ++n) {
    for (std::uint64_t r = 1; r < n; ++r) {
      EXPECT_EQ(SaturatingBinomial(n, r),
                SaturatingBinomial(n - 1, r - 1) + SaturatingBinomial(n - 1, r))
          << "n=" << n << " r=" << r;
    }
  }
}

TEST(MathTest, BinomialSaturates) {
  EXPECT_EQ(SaturatingBinomial(500, 250),
            std::numeric_limits<std::uint64_t>::max());
  // C(64, 32) fits in 64 bits and must not be treated as saturated.
  EXPECT_EQ(SaturatingBinomial(64, 32), 1832624140942590534ull);
}

TEST(MathTest, LogBinomialMatchesExact) {
  EXPECT_NEAR(LogBinomial(10, 3), std::log(120.0), 1e-9);
  EXPECT_NEAR(LogBinomial(40, 20), std::log(137846528820.0), 1e-6);
}

TEST(MathTest, KlBernoulliBasics) {
  EXPECT_DOUBLE_EQ(KlBernoulli(0.3, 0.3), 0.0);
  EXPECT_GT(KlBernoulli(0.3, 0.2), 0.0);
  EXPECT_GT(KlBernoulli(0.3, 0.4), 0.0);
  // Known closed form: D(0||q) = -ln(1-q).
  EXPECT_NEAR(KlBernoulli(0.0, 0.5), -std::log(0.5), 1e-12);
  EXPECT_TRUE(std::isinf(KlBernoulli(0.5, 0.0)));
  EXPECT_TRUE(std::isinf(KlBernoulli(0.5, 1.0)));
}

TEST(MathTest, KlBernoulliDominatesQuadraticBound) {
  // Pinsker-style: D(p || p - e) >= 2 e^2.
  for (double p : {0.1, 0.3, 0.5, 0.9}) {
    for (double e : {0.01, 0.05}) {
      EXPECT_GE(KlBernoulli(p, p - e), 2 * e * e);
    }
  }
}

TEST(MathTest, HoeffdingSampleSize) {
  // 2 exp(-2 s eps^2) <= delta at the returned s, and not at s - 1.
  for (double eps : {0.1, 0.01}) {
    for (double delta : {0.1, 1e-4}) {
      std::uint64_t s = HoeffdingSampleSize(eps, delta);
      EXPECT_LE(2 * std::exp(-2.0 * static_cast<double>(s) * eps * eps),
                delta);
      EXPECT_GT(
          2 * std::exp(-2.0 * static_cast<double>(s - 1) * eps * eps),
          delta);
    }
  }
}

TEST(MathTest, HoeffdingQuadraticInEps) {
  std::uint64_t s1 = HoeffdingSampleSize(0.01, 1e-4);
  std::uint64_t s2 = HoeffdingSampleSize(0.001, 1e-4);
  // eps/10 should cost ~100x.
  EXPECT_NEAR(static_cast<double>(s2) / static_cast<double>(s1), 100.0, 1.0);
}

TEST(MathTest, SteinSampleSizeSatisfiesCondition) {
  for (double phi : {0.01, 0.05, 0.2}) {
    for (double eps : {0.002, 0.005}) {
      if (eps > phi) continue;
      for (double delta : {0.01, 1e-4}) {
        double s = static_cast<double>(SteinSampleSize(phi, eps, delta));
        double fail = std::exp(-s * KlBernoulli(phi, phi - eps)) +
                      std::exp(-s * KlBernoulli(phi, phi + eps));
        EXPECT_LE(fail, delta * (1.0 + 1e-9));
      }
    }
  }
}

TEST(MathTest, SteinBeatsHoeffdingForExtremeQuantiles) {
  // The whole point of Section 7: for small phi the KL-based sample size is
  // far below the Hoeffding one at the same (eps, delta).
  std::uint64_t stein = SteinSampleSize(0.01, 0.005, 1e-4);
  std::uint64_t hoeffding = HoeffdingSampleSize(0.005, 1e-4);
  EXPECT_LT(stein * 10, hoeffding);
}

TEST(MathTest, NextPow2) {
  EXPECT_EQ(NextPow2(1), 1u);
  EXPECT_EQ(NextPow2(2), 2u);
  EXPECT_EQ(NextPow2(3), 4u);
  EXPECT_EQ(NextPow2(1000), 1024u);
  EXPECT_TRUE(IsPow2(64));
  EXPECT_FALSE(IsPow2(65));
  EXPECT_FALSE(IsPow2(0));
}

// ---------------------------------------------------------------- Random

TEST(RandomTest, DeterministicFromSeed) {
  Random a(123), b(123), c(124);
  bool all_equal = true;
  bool any_diff_seed_differs = false;
  for (int i = 0; i < 100; ++i) {
    std::uint64_t va = a.NextUint64();
    all_equal = all_equal && (va == b.NextUint64());
    any_diff_seed_differs = any_diff_seed_differs || (va != c.NextUint64());
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_seed_differs);
}

TEST(RandomTest, UniformUint64StaysInRange) {
  Random rng(7);
  for (std::uint64_t n : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.UniformUint64(n), n);
    }
  }
}

TEST(RandomTest, UniformUint64IsRoughlyUniform) {
  Random rng(99);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.UniformUint64(kBuckets)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, 500);  // ~5 sigma
  }
}

TEST(RandomTest, UniformDoubleInUnitInterval) {
  Random rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RandomTest, BernoulliEdgesAndMean) {
  Random rng(11);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RandomTest, GaussianMoments) {
  Random rng(13);
  double sum = 0, sum2 = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.03);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.05);
}

TEST(RandomTest, ExponentialMean) {
  Random rng(17);
  double sum = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(RandomTest, ForkProducesIndependentStream) {
  Random a(21);
  Random b = a.Fork();
  // Forked stream should not replay the parent's output.
  Random a2(21);
  a2.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 3);
}

// ---------------------------------------------------------------- KBest

TEST(KBestTest, KeepsSmallest) {
  KBest heap(3);
  for (Value v : {5.0, 1.0, 9.0, 3.0, 7.0, 2.0}) heap.Push(v);
  EXPECT_EQ(heap.size(), 3u);
  EXPECT_TRUE(heap.full());
  EXPECT_DOUBLE_EQ(heap.Worst(), 3.0);  // largest of {1, 2, 3}
  std::vector<Value> sorted = heap.SortedFromExtreme();
  EXPECT_EQ(sorted, (std::vector<Value>{1.0, 2.0, 3.0}));
}

TEST(KBestTest, KeepsLargest) {
  KBest heap(2, /*keep_largest=*/true);
  for (Value v : {5.0, 1.0, 9.0, 3.0}) heap.Push(v);
  EXPECT_DOUBLE_EQ(heap.Worst(), 5.0);  // smallest of {9, 5}
  EXPECT_EQ(heap.SortedFromExtreme(), (std::vector<Value>{9.0, 5.0}));
}

TEST(KBestTest, PushReportsRetention) {
  KBest heap(2);
  EXPECT_TRUE(heap.Push(10.0));
  EXPECT_TRUE(heap.Push(20.0));
  EXPECT_FALSE(heap.Push(30.0));  // worse than both
  EXPECT_TRUE(heap.Push(5.0));    // evicts 20
  EXPECT_DOUBLE_EQ(heap.Worst(), 10.0);
}

TEST(KBestTest, FilterRebuildsHeap) {
  KBest heap(4);
  for (Value v : {4.0, 2.0, 3.0, 1.0}) heap.Push(v);
  heap.Filter([](Value v) { return v <= 2.0; });
  EXPECT_EQ(heap.size(), 2u);
  EXPECT_DOUBLE_EQ(heap.Worst(), 2.0);
  heap.Push(0.5);
  EXPECT_EQ(heap.SortedFromExtreme(), (std::vector<Value>{0.5, 1.0, 2.0}));
}

TEST(KBestTest, DuplicatesAreKept) {
  KBest heap(3);
  for (Value v : {2.0, 2.0, 2.0, 1.0}) heap.Push(v);
  EXPECT_EQ(heap.SortedFromExtreme(), (std::vector<Value>{1.0, 2.0, 2.0}));
}

// ------------------------------------------------------- kernel stamp

// Every bench JSON row, the perfbench stamp line and the daemon's startup
// line record these two values; tools/bench_diff compares them across
// artifacts. Every host runs the one portable sort kernel.
TEST(KernelStampTest, ActivePathIsScalarAndFeaturesAreReported) {
  EXPECT_STREQ(simd::ActivePathName(), "scalar");
  EXPECT_FALSE(simd::CpuFeatureString().empty());
}

}  // namespace
}  // namespace mrl
