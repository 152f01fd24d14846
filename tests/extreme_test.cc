#include <vector>

#include <gtest/gtest.h>

#include "core/extreme.h"
#include "core/params.h"
#include "stream/generator.h"

namespace mrl {
namespace {

// ------------------------------------------------------------------ Sizing

TEST(ExtremeValueSizingTest, ValidatesArguments) {
  EXPECT_FALSE(SolveExtremeValue(0.0, 0.001, 1e-4, 1000).ok());
  EXPECT_FALSE(SolveExtremeValue(0.5, 0.001, 1e-4, 1000).ok());
  EXPECT_FALSE(SolveExtremeValue(0.01, 0.02, 1e-4, 1000).ok());  // eps > phi
  EXPECT_FALSE(SolveExtremeValue(0.01, 0.001, 0.0, 1000).ok());
  EXPECT_FALSE(SolveExtremeValue(0.01, 0.001, 1e-4, 0).ok());
}

TEST(ExtremeValueSizingTest, KIsPhiFractionOfSample) {
  auto sizing = SolveExtremeValue(0.01, 0.002, 1e-4, 1'000'000).value();
  EXPECT_GE(sizing.k, 1u);
  EXPECT_NEAR(static_cast<double>(sizing.k),
              0.01 * static_cast<double>(sizing.sample_size), 1.0);
  EXPECT_LE(sizing.sample_probability, 1.0);
}

TEST(ExtremeValueSizingTest, HighTailMirrorsLowTail) {
  auto low = SolveExtremeValue(0.01, 0.002, 1e-4, 1'000'000).value();
  auto high = SolveExtremeValue(0.99, 0.002, 1e-4, 1'000'000).value();
  EXPECT_EQ(low.k, high.k);
  EXPECT_EQ(low.sample_size, high.sample_size);
}

TEST(ExtremeValueSizingTest, Section7ClaimLessMemoryThanGeneralAlgorithm) {
  // The headline of Section 7: for phi near 0 the estimator needs far less
  // memory than the general-purpose sketch at the same (eps, delta).
  const double eps = 0.001;
  const double delta = 1e-4;
  std::uint64_t general = UnknownNMemoryElements(eps, delta).value();
  for (double phi : {0.002, 0.005, 0.01}) {
    auto sizing = SolveExtremeValue(phi, eps, delta, 100'000'000).value();
    EXPECT_LT(sizing.k * 5, general) << "phi=" << phi;
  }
}

// ------------------------------------------------------------------ Sketch

TEST(ExtremeValueSketchTest, LowTailAccuracy) {
  const double phi = 0.01;
  const double eps = 0.004;
  StreamSpec spec;
  spec.n = 500000;
  spec.seed = 21;
  spec.distribution = "exponential";
  Dataset ds = GenerateStream(spec);

  ExtremeValueOptions options;
  options.phi = phi;
  options.eps = eps;
  options.delta = 1e-3;
  options.n = ds.size();
  options.seed = 5;
  ExtremeValueSketch sketch =
      std::move(ExtremeValueSketch::Create(options)).value();
  for (Value v : ds.values()) sketch.Add(v);
  Value est = sketch.Query(phi).value();
  EXPECT_LE(ds.QuantileError(est, phi), eps);
}

TEST(ExtremeValueSketchTest, HighTailAccuracy) {
  const double phi = 0.995;
  const double eps = 0.002;
  StreamSpec spec;
  spec.n = 400000;
  spec.seed = 23;
  Dataset ds = GenerateStream(spec);

  ExtremeValueOptions options;
  options.phi = phi;
  options.eps = eps;
  options.delta = 1e-3;
  options.n = ds.size();
  options.seed = 7;
  ExtremeValueSketch sketch =
      std::move(ExtremeValueSketch::Create(options)).value();
  for (Value v : ds.values()) sketch.Add(v);
  Value est = sketch.Query(phi).value();
  EXPECT_LE(ds.QuantileError(est, phi), eps);
}

TEST(ExtremeValueSketchTest, FailureRateWithinDelta) {
  // 40 independent trials at delta = 0.05: expect ~2 failures; 8 would be
  // a > 4-sigma fluke.
  const double phi = 0.02;
  const double eps = 0.008;
  int failures = 0;
  constexpr int kTrials = 40;
  for (int t = 0; t < kTrials; ++t) {
    StreamSpec spec;
    spec.n = 60000;
    spec.seed = 1000 + static_cast<std::uint64_t>(t);
    Dataset ds = GenerateStream(spec);
    ExtremeValueOptions options;
    options.phi = phi;
    options.eps = eps;
    options.delta = 0.05;
    options.n = ds.size();
    options.seed = 2000 + static_cast<std::uint64_t>(t);
    ExtremeValueSketch sketch =
        std::move(ExtremeValueSketch::Create(options)).value();
    for (Value v : ds.values()) sketch.Add(v);
    // The sketch was sized for phi, so it must answer it even when the
    // Bernoulli sample overshoots its expected size.
    Result<Value> answer = sketch.Query(phi);
    ASSERT_TRUE(answer.ok()) << "trial " << t << ": " << answer.status();
    if (ds.QuantileError(answer.value(), phi) > eps) ++failures;
  }
  EXPECT_LE(failures, 8);
}

TEST(ExtremeValueSketchTest, WrongTailQueryRejected) {
  ExtremeValueOptions options;
  options.phi = 0.01;
  options.eps = 0.005;
  options.n = 1000;
  ExtremeValueSketch sketch =
      std::move(ExtremeValueSketch::Create(options)).value();
  for (int i = 0; i < 1000; ++i) sketch.Add(i);
  EXPECT_EQ(sketch.Query(0.9).status().code(), StatusCode::kInvalidArgument);
}

TEST(ExtremeValueSketchTest, NonExtremeQueryOutOfRange) {
  ExtremeValueOptions options;
  options.phi = 0.01;
  options.eps = 0.005;
  options.n = 1'000'000;
  options.seed = 3;
  ExtremeValueSketch sketch =
      std::move(ExtremeValueSketch::Create(options)).value();
  for (int i = 0; i < 1'000'000; ++i) {
    sketch.Add(static_cast<Value>(i));
  }
  // phi = 0.4 needs ~40% of the sample but the heap only holds ~1%.
  EXPECT_EQ(sketch.Query(0.4).status().code(), StatusCode::kOutOfRange);
}

TEST(ExtremeValueSketchTest, EmptyQueryFails) {
  ExtremeValueOptions options;
  options.phi = 0.01;
  options.eps = 0.005;
  options.n = 1000;
  ExtremeValueSketch sketch =
      std::move(ExtremeValueSketch::Create(options)).value();
  EXPECT_EQ(sketch.Query(0.01).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ExtremeValueSketchTest, ShortStreamDegradesGracefully) {
  ExtremeValueOptions options;
  options.phi = 0.01;
  options.eps = 0.005;
  options.n = 1'000'000;  // expects a long stream...
  options.seed = 9;
  ExtremeValueSketch sketch =
      std::move(ExtremeValueSketch::Create(options)).value();
  for (int i = 0; i < 100; ++i) sketch.Add(i);  // ...but gets a short one
  Result<Value> est = sketch.Query(0.01);
  if (sketch.sampled_count() > 0) {
    EXPECT_TRUE(est.ok());
  } else {
    EXPECT_EQ(est.status().code(), StatusCode::kFailedPrecondition);
  }
}

// ---------------------------------------------------------------- Adaptive

TEST(AdaptiveExtremeTest, UnknownNAccuracy) {
  AdaptiveExtremeValueSketch::Options options;
  options.phi = 0.01;
  options.eps = 0.005;
  options.delta = 1e-3;
  options.seed = 11;
  AdaptiveExtremeValueSketch sketch =
      std::move(AdaptiveExtremeValueSketch::Create(options)).value();

  StreamSpec spec;
  spec.n = 300000;
  spec.seed = 13;
  Dataset ds = GenerateStream(spec);
  for (Value v : ds.values()) sketch.Add(v);
  EXPECT_LT(sketch.sample_probability(), 1.0)
      << "the rate must have halved on a long stream";
  Value est = sketch.Query(0.01).value();
  EXPECT_LE(ds.QuantileError(est, 0.01), 2 * options.eps);
}

TEST(AdaptiveExtremeTest, AccurateAtMultiplePrefixLengths) {
  AdaptiveExtremeValueSketch::Options options;
  options.phi = 0.05;
  options.eps = 0.02;
  options.delta = 1e-3;
  options.seed = 17;
  AdaptiveExtremeValueSketch sketch =
      std::move(AdaptiveExtremeValueSketch::Create(options)).value();
  StreamSpec spec;
  spec.n = 120000;
  spec.seed = 19;
  Dataset ds = GenerateStream(spec);
  std::vector<Value> prefix;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    sketch.Add(ds.values()[i]);
    prefix.push_back(ds.values()[i]);
    if ((i + 1) == 1000 || (i + 1) == 30000 || (i + 1) == 120000) {
      Dataset prefix_ds(prefix);
      Value est = sketch.Query(0.05).value();
      EXPECT_LE(prefix_ds.QuantileError(est, 0.05), 2 * options.eps)
          << "prefix " << (i + 1);
    }
  }
}

TEST(AdaptiveExtremeTest, HighTail) {
  AdaptiveExtremeValueSketch::Options options;
  options.phi = 0.99;
  options.eps = 0.004;
  options.delta = 1e-3;
  options.seed = 23;
  AdaptiveExtremeValueSketch sketch =
      std::move(AdaptiveExtremeValueSketch::Create(options)).value();
  StreamSpec spec;
  spec.n = 200000;
  spec.seed = 29;
  spec.distribution = "exponential";
  Dataset ds = GenerateStream(spec);
  for (Value v : ds.values()) sketch.Add(v);
  Value est = sketch.Query(0.99).value();
  EXPECT_LE(ds.QuantileError(est, 0.99), 2 * options.eps);
}

TEST(AdaptiveExtremeTest, MemoryStaysBounded) {
  AdaptiveExtremeValueSketch::Options options;
  options.phi = 0.01;
  options.eps = 0.005;
  options.delta = 1e-3;
  AdaptiveExtremeValueSketch sketch =
      std::move(AdaptiveExtremeValueSketch::Create(options)).value();
  std::uint64_t cap = sketch.MemoryElements();
  EXPECT_GT(cap, 0u);
  // Memory must not depend on the stream length.
  for (int i = 0; i < 500000; ++i) sketch.Add(i);
  EXPECT_EQ(sketch.MemoryElements(), cap);
}

}  // namespace
}  // namespace mrl
