// Differential coverage of the SIMD kernel lane (util/simd.h): every AVX2
// kernel must be bit-identical to its scalar reference over adversarial
// inputs — the two zeros, the infinities, denormals, duplicate-heavy
// streams — at every tail length (n mod 4) and every element offset from a
// 32-byte boundary (the kernels use unaligned loads; spans come from
// Buffer storage and arbitrary user batches). On hosts without AVX2 the
// differential half skips and the suite still pins the dispatch/naming
// contract and the scalar lane against the canonical OrderedKeyFromValue.
//
// The final tests force each dispatch path through the whole sketch stack
// and require byte-identical serialized state — the in-process equivalent
// of running twice with MRLQUANT_FORCE_SCALAR=1 and unset, which the CI
// forced-scalar lanes exercise across real processes.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/unknown_n.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/sort.h"

namespace mrl {
namespace {

using simd::DispatchPath;
using simd::SortKernelOps;

constexpr std::size_t kHistBytes = 8 * 256 * sizeof(std::size_t);

/// Bitwise equality of n values (so -0.0 differs from +0.0). An empty
/// vector's data() may be null, which memcmp forbids even for n == 0.
bool SameBits(const Value* a, const Value* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(Value)) == 0;
}

/// The values most likely to break a bit-twiddling vector kernel: both
/// zeros, both infinities, denormals at both ends, and the extremes of the
/// normal range. (NaN is excluded by the sketch boundary contract.)
std::vector<Value> AdversarialPalette() {
  return {
      +0.0,
      -0.0,
      std::numeric_limits<Value>::infinity(),
      -std::numeric_limits<Value>::infinity(),
      std::numeric_limits<Value>::denorm_min(),
      -std::numeric_limits<Value>::denorm_min(),
      std::numeric_limits<Value>::min(),
      -std::numeric_limits<Value>::min(),
      std::numeric_limits<Value>::max(),
      std::numeric_limits<Value>::lowest(),
      1.0,
      -1.0,
      1e-300,
      -1e-300,
  };
}

enum class InputKind { kUniform, kDuplicateHeavy, kAdversarial };

std::vector<Value> MakeInput(InputKind kind, std::size_t n,
                             std::uint64_t seed) {
  std::vector<Value> v(n);
  Random rng(seed);
  const std::vector<Value> palette = AdversarialPalette();
  for (std::size_t i = 0; i < n; ++i) {
    switch (kind) {
      case InputKind::kUniform:
        v[i] = rng.UniformDouble(-1e9, 1e9);
        break;
      case InputKind::kDuplicateHeavy:
        // 7 distinct values: every partial histogram table sees the same
        // few counters over and over — the conflict-stall shape.
        v[i] = std::floor(rng.UniformDouble() * 7.0) * 0.5 - 1.5;
        break;
      case InputKind::kAdversarial:
        v[i] = palette[(i + seed) % palette.size()];
        break;
    }
  }
  return v;
}

/// Sizes that straddle every interesting boundary: all SIMD tail lengths
/// 0..8 at two bases, the radix small-n cutoff (256), and the AVX2
/// partial-histogram cutoff (4096).
std::vector<std::size_t> BoundarySizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t t = 0; t <= 8; ++t) sizes.push_back(t);
  for (std::size_t t = 0; t <= 8; ++t) sizes.push_back(4096 + t);
  for (std::size_t n : {std::size_t{255}, std::size_t{256}, std::size_t{257},
                        std::size_t{1024}, std::size_t{4095},
                        std::size_t{5000}}) {
    sizes.push_back(n);
  }
  return sizes;
}

const SortKernelOps* Avx2OrSkip() {
  const SortKernelOps* avx2 = simd::Avx2SortKernelsOrNull();
  if (avx2 == nullptr) {
    // Skipping (not failing) keeps the suite green on non-AVX2 hosts; the
    // scalar-only assertions below still run there.
    return nullptr;
  }
  return avx2;
}

// ----------------------------------------------------------- scalar lane

TEST(SimdKernelTest, ScalarTransformMatchesCanonicalForm) {
  const std::vector<Value> in = MakeInput(InputKind::kAdversarial, 1000, 1);
  std::vector<std::uint64_t> keys(in.size());
  simd::ScalarSortKernels().transform_keys(in.data(), keys.data(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(keys[i], OrderedKeyFromValue(in[i])) << "at " << i;
  }
  std::vector<Value> back(in.size());
  simd::ScalarSortKernels().inverse_keys(keys.data(), back.data(),
                                         keys.size());
  EXPECT_EQ(std::memcmp(back.data(), in.data(), in.size() * sizeof(Value)),
            0);
}

TEST(SimdKernelTest, ScalarFusedHistogramMatchesPlainHistogram) {
  const std::vector<Value> in = MakeInput(InputKind::kUniform, 4321, 2);
  std::vector<std::uint64_t> keys_a(in.size());
  std::vector<std::uint64_t> keys_b(in.size());
  std::size_t hist_a[8][256];
  std::size_t hist_b[8][256];
  const SortKernelOps& scalar = simd::ScalarSortKernels();
  scalar.transform_and_histogram(in.data(), keys_a.data(), in.size(), hist_a);
  scalar.transform_keys(in.data(), keys_b.data(), in.size());
  scalar.histogram(keys_b.data(), in.size(), hist_b);
  EXPECT_EQ(std::memcmp(keys_a.data(), keys_b.data(),
                        in.size() * sizeof(std::uint64_t)),
            0);
  EXPECT_EQ(std::memcmp(hist_a, hist_b, kHistBytes), 0);
}

// ----------------------------------------- AVX2 vs scalar, element-level

/// Sweeps one (kind, size, offset) cell: both tables over the same
/// unaligned span must emit identical keys, identical inverses, and
/// identical histograms.
void ExpectKernelsMatch(const SortKernelOps& avx2, InputKind kind,
                        std::size_t n, std::size_t offset,
                        std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "kind=" << static_cast<int>(kind)
                                    << " n=" << n << " offset=" << offset);
  // Over-allocate so data() + offset walks through every element alignment
  // relative to the vector's (32-byte-aligned-or-not) base.
  std::vector<Value> storage = MakeInput(kind, n + offset, seed);
  const Value* in = storage.data() + offset;

  const SortKernelOps& scalar = simd::ScalarSortKernels();

  std::vector<std::uint64_t> keys_scalar(n + 1), keys_avx2(n + 1);
  scalar.transform_keys(in, keys_scalar.data(), n);
  avx2.transform_keys(in, keys_avx2.data(), n);
  ASSERT_EQ(std::memcmp(keys_scalar.data(), keys_avx2.data(),
                        n * sizeof(std::uint64_t)),
            0);

  std::vector<Value> back_scalar(n + 1), back_avx2(n + 1);
  scalar.inverse_keys(keys_scalar.data(), back_scalar.data(), n);
  avx2.inverse_keys(keys_scalar.data(), back_avx2.data(), n);
  ASSERT_EQ(std::memcmp(back_scalar.data(), back_avx2.data(),
                        n * sizeof(Value)),
            0);
  // Round trip restores the exact input bits (including -0.0 vs +0.0).
  ASSERT_TRUE(SameBits(back_avx2.data(), in, n));

  std::size_t hist_scalar[8][256];
  std::size_t hist_avx2[8][256];
  scalar.histogram(keys_scalar.data(), n, hist_scalar);
  avx2.histogram(keys_scalar.data(), n, hist_avx2);
  ASSERT_EQ(std::memcmp(hist_scalar, hist_avx2, kHistBytes), 0);

  std::vector<std::uint64_t> fused_keys(n + 1);
  std::size_t fused_hist[8][256];
  avx2.transform_and_histogram(in, fused_keys.data(), n, fused_hist);
  ASSERT_EQ(std::memcmp(fused_keys.data(), keys_scalar.data(),
                        n * sizeof(std::uint64_t)),
            0);
  ASSERT_EQ(std::memcmp(fused_hist, hist_scalar, kHistBytes), 0);
}

TEST(SimdKernelTest, Avx2MatchesScalarAcrossTailsAndOffsets) {
  const SortKernelOps* avx2 = Avx2OrSkip();
  if (avx2 == nullptr) GTEST_SKIP() << "host or build lacks AVX2";
  std::uint64_t seed = 100;
  for (InputKind kind : {InputKind::kUniform, InputKind::kDuplicateHeavy,
                         InputKind::kAdversarial}) {
    for (std::size_t n : BoundarySizes()) {
      for (std::size_t offset = 0; offset < 8; ++offset) {
        ExpectKernelsMatch(*avx2, kind, n, offset, ++seed);
      }
    }
  }
}

// ------------------------------------------------ dispatch and the names

TEST(SimdKernelTest, DispatchNamesAreStable) {
  EXPECT_STREQ(simd::DispatchPathName(DispatchPath::kScalar), "scalar");
  EXPECT_STREQ(simd::DispatchPathName(DispatchPath::kForcedScalar),
               "forced-scalar");
  EXPECT_STREQ(simd::DispatchPathName(DispatchPath::kAvx2), "avx2");
  EXPECT_STREQ(simd::ActivePathName(),
               simd::DispatchPathName(simd::ActivePath()));
  EXPECT_FALSE(simd::CpuFeatureString().empty());
}

TEST(SimdKernelTest, ForceDispatchSwapsTableAndName) {
  const DispatchPath original =
      simd::ForceDispatchForTesting(DispatchPath::kForcedScalar);
  EXPECT_STREQ(simd::ActivePathName(), "forced-scalar");
  EXPECT_EQ(&simd::ActiveSortKernels(), &simd::ScalarSortKernels());
  simd::ForceDispatchForTesting(original);
  EXPECT_EQ(simd::ActivePath(), original);
}

// ----------------------------------- both paths through the whole engine

/// Serialized sketch state after a fixed stream under the given dispatch
/// path — the end-to-end function whose output must not depend on the
/// kernel table.
std::vector<std::uint8_t> SketchStateUnder(DispatchPath path) {
  const DispatchPath original = simd::ForceDispatchForTesting(path);
  UnknownNOptions options;
  options.eps = 0.01;
  options.delta = 1e-4;
  options.seed = 2026;
  Result<UnknownNSketch> sketch = UnknownNSketch::Create(options);
  EXPECT_TRUE(sketch.ok());
  Random rng(77);
  std::vector<Value> batch(4096);
  const std::vector<Value> palette = AdversarialPalette();
  for (int rep = 0; rep < 40; ++rep) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      // Mostly random with a sprinkle of the adversarial palette, so the
      // collapse tree sorts duplicate zeros and infinities too.
      batch[i] = (i % 67 == 0) ? palette[(i + rep) % palette.size()]
                               : rng.UniformDouble(-1e9, 1e9);
    }
    sketch.value().AddBatch(batch);
  }
  std::vector<std::uint8_t> state = sketch.value().Serialize();
  simd::ForceDispatchForTesting(original);
  return state;
}

TEST(SimdKernelTest, ForcedScalarAndAvx2SerializeIdenticalSketchState) {
  if (Avx2OrSkip() == nullptr) GTEST_SKIP() << "host or build lacks AVX2";
  const std::vector<std::uint8_t> scalar_state =
      SketchStateUnder(DispatchPath::kForcedScalar);
  const std::vector<std::uint8_t> avx2_state =
      SketchStateUnder(DispatchPath::kAvx2);
  ASSERT_EQ(scalar_state.size(), avx2_state.size());
  EXPECT_EQ(scalar_state, avx2_state)
      << "dispatch path changed serialized sketch state";
}

TEST(SimdKernelTest, SortEngineBitIdenticalAcrossPaths) {
  if (Avx2OrSkip() == nullptr) GTEST_SKIP() << "host or build lacks AVX2";
  for (std::size_t n : BoundarySizes()) {
    std::vector<Value> a = MakeInput(InputKind::kAdversarial, n, n + 9);
    std::vector<Value> b = a;

    DispatchPath original =
        simd::ForceDispatchForTesting(DispatchPath::kForcedScalar);
    SortScratch scratch_a;
    SortValues(a.data(), a.size(), &scratch_a);
    simd::ForceDispatchForTesting(DispatchPath::kAvx2);
    SortScratch scratch_b;
    SortValues(b.data(), b.size(), &scratch_b);
    simd::ForceDispatchForTesting(original);

    ASSERT_TRUE(SameBits(a.data(), b.data(), n)) << "n=" << n;
  }
}

}  // namespace
}  // namespace mrl
