// Reset() contract: a reset sketch is indistinguishable — byte-for-byte in
// serialized state, and therefore in every future answer and every future
// random draw — from a freshly constructed one, while reusing the existing
// buffer pool. This is what lets a serving layer (src/server/registry)
// recycle tenant slots without reallocating.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/det_reservoir.h"
#include "core/estimator.h"
#include "core/extreme.h"
#include "core/kll.h"
#include "core/known_n.h"
#include "core/unknown_n.h"
#include "util/random.h"

namespace mrl {
namespace {

std::vector<Value> TestStream(std::size_t n, std::uint64_t seed) {
  Random rng(seed);
  std::vector<Value> values(n);
  for (Value& v : values) v = rng.UniformDouble(-1e6, 1e6);
  return values;
}

TEST(ResetTest, UnknownNByteIdenticalToFresh) {
  UnknownNOptions options;
  options.eps = 0.05;
  options.delta = 1e-3;
  options.seed = 42;
  Result<UnknownNSketch> fresh = UnknownNSketch::Create(options);
  ASSERT_TRUE(fresh.ok());
  Result<UnknownNSketch> used = UnknownNSketch::Create(options);
  ASSERT_TRUE(used.ok());
  UnknownNSketch& sketch = used.value();
  sketch.AddAll(TestStream(100000, 7));
  ASSERT_GT(sketch.count(), 0u);

  sketch.Reset();
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_EQ(sketch.Serialize(), fresh.value().Serialize());

  // Indistinguishable going forward too: same stream => same bytes again.
  const std::vector<Value> stream = TestStream(50000, 9);
  sketch.AddAll(stream);
  fresh.value().AddAll(stream);
  EXPECT_EQ(sketch.Serialize(), fresh.value().Serialize());
}

TEST(ResetTest, UnknownNResetWithExplicitSeed) {
  UnknownNOptions options;
  options.eps = 0.05;
  options.delta = 1e-3;
  options.seed = 1234;
  Result<UnknownNSketch> fresh = UnknownNSketch::Create(options);
  ASSERT_TRUE(fresh.ok());

  options.seed = 999;  // construct under a different seed, then re-seed
  Result<UnknownNSketch> used = UnknownNSketch::Create(options);
  ASSERT_TRUE(used.ok());
  used.value().AddAll(TestStream(20000, 3));
  used.value().Reset(1234);
  EXPECT_EQ(used.value().Serialize(), fresh.value().Serialize());
}

TEST(ResetTest, KnownNByteIdenticalToFresh) {
  KnownNOptions options;
  options.eps = 0.02;
  options.delta = 1e-3;
  options.n = 200000;
  options.seed = 11;
  Result<KnownNSketch> fresh = KnownNSketch::Create(options);
  ASSERT_TRUE(fresh.ok());
  Result<KnownNSketch> used = KnownNSketch::Create(options);
  ASSERT_TRUE(used.ok());
  used.value().AddAll(TestStream(150000, 5));

  used.value().Reset();
  EXPECT_EQ(used.value().count(), 0u);
  EXPECT_EQ(used.value().Serialize(), fresh.value().Serialize());
}

TEST(ResetTest, KnownNResetClearsOverflow) {
  KnownNOptions options;
  options.eps = 0.1;
  options.delta = 1e-2;
  options.n = 1000;
  Result<KnownNSketch> sketch = KnownNSketch::Create(options);
  ASSERT_TRUE(sketch.ok());
  sketch.value().AddAll(TestStream(1500, 2));  // overflow the declared n
  ASSERT_TRUE(sketch.value().overflowed());
  sketch.value().Reset();
  EXPECT_FALSE(sketch.value().overflowed());
  sketch.value().AddAll(TestStream(500, 2));
  EXPECT_TRUE(sketch.value().Query(0.5).ok());
}

// --------------------------------------------- interface-level backend sweep
//
// Every backend the registry can instantiate must honor the same contract
// through the QuantileEstimator interface alone: Reset() is byte-identical
// to fresh construction, Reset(seed) is byte-identical to constructing
// under that seed, and the equivalence extends to all future bytes.

struct BackendFactory {
  const char* name;
  std::function<std::unique_ptr<QuantileEstimator>(std::uint64_t)> make;
};

std::vector<BackendFactory> AllBackends() {
  std::vector<BackendFactory> backends;
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
    options.n = 200000;
    options.seed = seed;
    return std::unique_ptr<QuantileEstimator>(new ExtremeValueSketch(
        std::move(ExtremeValueSketch::Create(options)).value()));
  }});
  backends.push_back({"kll", [](std::uint64_t seed) {
    KllOptions options;
    options.eps = 0.02;
    options.delta = 1e-3;
    options.seed = seed;
    return std::unique_ptr<QuantileEstimator>(
        new KllSketch(std::move(KllSketch::Create(options)).value()));
  }});
  backends.push_back({"det_reservoir", [](std::uint64_t seed) {
    DetReservoirOptions options;
    options.eps = 0.02;
    options.delta = 1e-3;
    options.seed = seed;
    return std::unique_ptr<QuantileEstimator>(new DeterministicReservoirSketch(
        std::move(DeterministicReservoirSketch::Create(options)).value()));
  }});
  return backends;
}

TEST(ResetTest, EveryBackendResetIsByteIdenticalToFresh) {
  for (const BackendFactory& backend : AllBackends()) {
    SCOPED_TRACE(backend.name);
    std::unique_ptr<QuantileEstimator> fresh = backend.make(42);
    std::unique_ptr<QuantileEstimator> used = backend.make(42);
    ASSERT_TRUE(used->SupportsCheckpoint());
    used->AddAll(TestStream(60000, 7));
    ASSERT_GT(used->count(), 0u);

    used->Reset();
    EXPECT_EQ(used->count(), 0u);
    EXPECT_EQ(used->Serialize(), fresh->Serialize());

    // Indistinguishable going forward: same post-reset stream, same bytes.
    const std::vector<Value> stream = TestStream(40000, 9);
    used->AddAll(stream);
    fresh->AddAll(stream);
    EXPECT_EQ(used->count(), fresh->count());
    EXPECT_EQ(used->Serialize(), fresh->Serialize());
  }
}

TEST(ResetTest, EveryBackendResetWithSeedMatchesConstruction) {
  for (const BackendFactory& backend : AllBackends()) {
    SCOPED_TRACE(backend.name);
    std::unique_ptr<QuantileEstimator> fresh = backend.make(1234);
    std::unique_ptr<QuantileEstimator> used = backend.make(999);
    used->AddAll(TestStream(20000, 3));
    used->Reset(1234);
    EXPECT_EQ(used->Serialize(), fresh->Serialize());
  }
}

TEST(ResetTest, EveryBackendRestoreRoundTripsThroughInterface) {
  for (const BackendFactory& backend : AllBackends()) {
    SCOPED_TRACE(backend.name);
    std::unique_ptr<QuantileEstimator> source = backend.make(5);
    source->AddAll(TestStream(30000, 13));
    const std::vector<std::uint8_t> blob = source->Serialize();

    // Restore overwrites whatever state the target held, seed included.
    std::unique_ptr<QuantileEstimator> target = backend.make(6);
    target->AddAll(TestStream(100, 14));
    const Status status = target->Restore(
        std::span<const std::uint8_t>(blob.data(), blob.size()));
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(target->count(), source->count());
    EXPECT_EQ(target->Serialize(), blob);

    // The restored sketch continues the stream exactly like the original.
    const std::vector<Value> tail = TestStream(10000, 15);
    source->AddAll(tail);
    target->AddAll(tail);
    EXPECT_EQ(target->Serialize(), source->Serialize());
  }
}

}  // namespace
}  // namespace mrl
