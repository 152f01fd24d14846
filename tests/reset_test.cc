// Restore contract through the QuantileEstimator interface alone: for every
// checkpointing backend, Restore() overwrites whatever state the target
// held — seed included — so the restored sketch serializes to the source's
// bytes and continues the stream exactly like the original.

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

// --------------------------------------------- interface-level backend sweep
//
// Every checkpointing backend, constructed under a given seed.

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
