#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/estimator.h"
#include "core/extreme.h"
#include "core/known_n.h"
#include "core/partial.h"
#include "core/unknown_n.h"
#include "stream/generator.h"
#include "util/serde.h"

namespace mrl {
namespace {

// ----------------------------------------------------------- Writer/Reader

TEST(SerdeTest, PrimitivesRoundTrip) {
  std::vector<std::uint8_t> bytes;
  BinaryWriter w(&bytes);
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI32(-42);
  w.PutDouble(-0.15625);
  w.PutValues({1.0, -2.5, 3.75});

  BinaryReader r(bytes);
  std::uint8_t u8;
  std::uint32_t u32;
  std::uint64_t u64;
  std::int32_t i32;
  double d;
  std::vector<Value> values;
  ASSERT_TRUE(r.GetU8(&u8));
  ASSERT_TRUE(r.GetU32(&u32));
  ASSERT_TRUE(r.GetU64(&u64));
  ASSERT_TRUE(r.GetI32(&i32));
  ASSERT_TRUE(r.GetDouble(&d));
  ASSERT_TRUE(r.GetValues(&values));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i32, -42);
  EXPECT_DOUBLE_EQ(d, -0.15625);
  EXPECT_EQ(values, (std::vector<Value>{1.0, -2.5, 3.75}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, TruncatedReadFailsAndLatches) {
  std::vector<std::uint8_t> bytes;
  BinaryWriter w(&bytes);
  w.PutU32(7);
  BinaryReader r(bytes);
  std::uint64_t u64;
  EXPECT_FALSE(r.GetU64(&u64));
  EXPECT_FALSE(r.status().ok());
  // Subsequent reads keep failing without touching memory.
  std::uint8_t u8;
  EXPECT_FALSE(r.GetU8(&u8));
}

TEST(SerdeTest, HostileLengthPrefixRejected) {
  std::vector<std::uint8_t> bytes;
  BinaryWriter w(&bytes);
  w.PutU64(std::uint64_t{1} << 60);  // claims 2^60 doubles follow
  BinaryReader r(bytes);
  std::vector<Value> values;
  EXPECT_FALSE(r.GetValues(&values));
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerdeTest, RandomStateRoundTrip) {
  Random a(12345);
  a.NextUint64();
  a.NextUint64();
  Random b = Random::FromState(a.SaveState());
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(SerdeTest, BlockSamplerStateRoundTripMidBlock) {
  BlockSampler a(Random(5), 8);
  for (int i = 0; i < 13; ++i) a.Add(i);  // mid-block: 13 = 8 + 5
  BlockSampler b = BlockSampler::FromState(a.SaveState());
  EXPECT_EQ(b.rate(), a.rate());
  EXPECT_EQ(b.pending_count(), a.pending_count());
  EXPECT_EQ(b.pending_candidate(), a.pending_candidate());
  for (int i = 13; i < 200; ++i) {
    auto ra = a.Add(i);
    auto rb = b.Add(i);
    ASSERT_EQ(ra.has_value(), rb.has_value());
    if (ra) {
      EXPECT_DOUBLE_EQ(*ra, *rb);
    }
  }
}

// ----------------------------------------------------- Sketch checkpoints

class SketchCheckpointTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SketchCheckpointTest, RoundTripAtVariousCutPoints) {
  // Serialize after `cut` elements, restore, and feed the identical
  // remainder to both: every subsequent answer must match bit-for-bit.
  const std::size_t cut = GetParam();
  StreamSpec spec;
  spec.n = 50'000;
  spec.seed = 3;
  Dataset ds = GenerateStream(spec);

  UnknownNParams p;
  p.b = 4;
  p.k = 64;
  p.h = 3;
  p.alpha = 0.5;
  UnknownNOptions options;
  options.params = p;  // small params: collapses/sampling within 50k
  options.seed = 9;
  UnknownNSketch original = std::move(UnknownNSketch::Create(options)).value();
  for (std::size_t i = 0; i < cut; ++i) original.Add(ds.values()[i]);

  std::vector<std::uint8_t> bytes = original.Serialize();
  Result<UnknownNSketch> restored_r = UnknownNSketch::Deserialize(bytes);
  ASSERT_TRUE(restored_r.ok()) << restored_r.status();
  UnknownNSketch& restored = restored_r.value();

  EXPECT_EQ(restored.count(), original.count());
  EXPECT_EQ(restored.HeldWeight(), original.HeldWeight());
  EXPECT_EQ(restored.sampling_rate(), original.sampling_rate());

  for (std::size_t i = cut; i < ds.size(); ++i) {
    original.Add(ds.values()[i]);
    restored.Add(ds.values()[i]);
  }
  EXPECT_EQ(restored.HeldWeight(), ds.size());
  for (double phi : {0.05, 0.25, 0.5, 0.75, 0.95}) {
    EXPECT_DOUBLE_EQ(restored.Query(phi).value(),
                     original.Query(phi).value())
        << "cut=" << cut << " phi=" << phi;
  }
  EXPECT_EQ(restored.tree_stats().num_collapses,
            original.tree_stats().num_collapses);
}

INSTANTIATE_TEST_SUITE_P(
    CutPoints, SketchCheckpointTest,
    ::testing::Values(0, 1, 63, 64, 65, 1000, 4096, 12345, 50'000),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return "cut" + std::to_string(info.param);
    });

TEST(SketchCheckpointTest, SolvedParamsRoundTrip) {
  UnknownNOptions options;
  options.eps = 0.02;
  options.delta = 1e-3;
  options.seed = 21;
  UnknownNSketch sketch = std::move(UnknownNSketch::Create(options)).value();
  StreamSpec spec;
  spec.n = 30'000;
  spec.seed = 7;
  Dataset ds = GenerateStream(spec);
  for (Value v : ds.values()) sketch.Add(v);
  Result<UnknownNSketch> restored =
      UnknownNSketch::Deserialize(sketch.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_DOUBLE_EQ(restored.value().Query(0.5).value(),
                   sketch.Query(0.5).value());
  EXPECT_EQ(restored.value().params().b, sketch.params().b);
  EXPECT_EQ(restored.value().params().k, sketch.params().k);
}

TEST(SketchCheckpointTest, RejectsGarbage) {
  EXPECT_EQ(UnknownNSketch::Deserialize({}).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<std::uint8_t> junk(100, 0x5A);
  EXPECT_EQ(UnknownNSketch::Deserialize(junk).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SketchCheckpointTest, RejectsTruncation) {
  UnknownNParams p;
  p.b = 3;
  p.k = 16;
  p.h = 2;
  p.alpha = 0.5;
  UnknownNOptions options;
  options.params = p;
  UnknownNSketch sketch = std::move(UnknownNSketch::Create(options)).value();
  for (int i = 0; i < 500; ++i) sketch.Add(i);
  std::vector<std::uint8_t> bytes = sketch.Serialize();
  // Every strict prefix must be rejected cleanly (no crash, no success).
  for (std::size_t len : {std::size_t{0}, bytes.size() / 4,
                          bytes.size() / 2, bytes.size() - 1}) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<long>(len));
    EXPECT_FALSE(UnknownNSketch::Deserialize(prefix).ok()) << "len=" << len;
  }
}

TEST(SketchCheckpointTest, RejectsTrailingBytes) {
  UnknownNParams p;
  p.b = 3;
  p.k = 16;
  p.h = 2;
  p.alpha = 0.5;
  UnknownNOptions options;
  options.params = p;
  UnknownNSketch sketch = std::move(UnknownNSketch::Create(options)).value();
  sketch.Add(1.0);
  std::vector<std::uint8_t> bytes = sketch.Serialize();
  bytes.push_back(0);
  EXPECT_FALSE(UnknownNSketch::Deserialize(bytes).ok());
}

TEST(SketchCheckpointTest, RejectsBitFlippedFullBuffer) {
  // Flip bytes across the checkpoint; decoding must never crash, and if it
  // "succeeds" the restored sketch must at least be internally queryable.
  UnknownNParams p;
  p.b = 3;
  p.k = 32;
  p.h = 2;
  p.alpha = 0.5;
  UnknownNOptions options;
  options.params = p;
  options.seed = 13;
  UnknownNSketch sketch = std::move(UnknownNSketch::Create(options)).value();
  for (int i = 0; i < 1000; ++i) sketch.Add(i);
  std::vector<std::uint8_t> bytes = sketch.Serialize();
  int rejected = 0;
  for (std::size_t pos = 0; pos < bytes.size(); pos += 7) {
    std::vector<std::uint8_t> corrupted = bytes;
    corrupted[pos] ^= 0xFF;
    Result<UnknownNSketch> r = UnknownNSketch::Deserialize(corrupted);
    if (!r.ok()) {
      ++rejected;
    } else {
      (void)r.value().Query(0.5);  // must not crash
    }
  }
  EXPECT_GT(rejected, 0);
}

// The same hostile-input contract holds for every checkpointable sketch
// kind, not just unknown-N: trailing bytes, truncation at any prefix, and
// semantically illegal pools must all come back as Status, never a crash.

KnownNSketch MakeKnownNForCorruption() {
  KnownNOptions options;
  options.eps = 0.05;
  options.delta = 1e-3;
  options.n = 5000;
  options.seed = 17;
  KnownNSketch sketch = std::move(KnownNSketch::Create(options)).value();
  for (int i = 0; i < 3000; ++i) sketch.Add(static_cast<Value>(i * 31 % 997));
  return sketch;
}

ExtremeValueSketch MakeExtremeForCorruption() {
  ExtremeValueOptions options;
  options.phi = 0.01;
  options.eps = 0.005;
  options.delta = 1e-3;
  options.n = 5000;
  options.seed = 17;
  ExtremeValueSketch sketch =
      std::move(ExtremeValueSketch::Create(options)).value();
  for (int i = 0; i < 3000; ++i) sketch.Add(static_cast<Value>(i * 31 % 997));
  return sketch;
}

TEST(KnownNCheckpointTest, RejectsTrailingBytes) {
  std::vector<std::uint8_t> bytes = MakeKnownNForCorruption().Serialize();
  bytes.push_back(0);
  EXPECT_EQ(KnownNSketch::Deserialize(bytes).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(KnownNCheckpointTest, RejectsTruncation) {
  std::vector<std::uint8_t> bytes = MakeKnownNForCorruption().Serialize();
  for (std::size_t len : {std::size_t{0}, std::size_t{4}, bytes.size() / 4,
                          bytes.size() / 2, bytes.size() - 1}) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<long>(len));
    EXPECT_FALSE(KnownNSketch::Deserialize(prefix).ok()) << "len=" << len;
  }
}

TEST(KnownNCheckpointTest, BitFlipsNeverCrash) {
  std::vector<std::uint8_t> bytes = MakeKnownNForCorruption().Serialize();
  int rejected = 0;
  for (std::size_t pos = 0; pos < bytes.size(); pos += 7) {
    std::vector<std::uint8_t> corrupted = bytes;
    corrupted[pos] ^= 0xFF;
    Result<KnownNSketch> r = KnownNSketch::Deserialize(corrupted);
    if (!r.ok()) {
      ++rejected;
    } else {
      (void)r.value().Query(0.5);  // must not crash
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(ExtremeCheckpointTest, RejectsTrailingBytes) {
  std::vector<std::uint8_t> bytes = MakeExtremeForCorruption().Serialize();
  bytes.push_back(0);
  EXPECT_EQ(ExtremeValueSketch::Deserialize(bytes).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ExtremeCheckpointTest, RejectsTruncation) {
  std::vector<std::uint8_t> bytes = MakeExtremeForCorruption().Serialize();
  for (std::size_t len : {std::size_t{0}, std::size_t{4}, bytes.size() / 4,
                          bytes.size() / 2, bytes.size() - 1}) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<long>(len));
    EXPECT_FALSE(ExtremeValueSketch::Deserialize(prefix).ok())
        << "len=" << len;
  }
}

TEST(ExtremeCheckpointTest, BitFlipsNeverCrash) {
  std::vector<std::uint8_t> bytes = MakeExtremeForCorruption().Serialize();
  int rejected = 0;
  for (std::size_t pos = 0; pos < bytes.size(); pos += 7) {
    std::vector<std::uint8_t> corrupted = bytes;
    corrupted[pos] ^= 0xFF;
    Result<ExtremeValueSketch> r = ExtremeValueSketch::Deserialize(corrupted);
    if (!r.ok()) {
      ++rejected;
    } else {
      (void)r.value().Query(0.01);  // must not crash
    }
  }
  EXPECT_GT(rejected, 0);
}

// Kind bytes 4 (sharded), 5 (KLL) and 6 (deterministic reservoir) belonged
// to retired checkpoint formats and are never reused: every remaining
// backend's Restore must reject each with a clean Status, even when the
// rest of the blob is that backend's own valid payload.
TEST(SketchCheckpointTest, RetiredKindFourRejectedByEveryRestore) {
  constexpr std::size_t kKindOffset = 5;  // after the magic and version
  std::vector<std::unique_ptr<QuantileEstimator>> backends;
  backends.push_back(std::make_unique<UnknownNSketch>(
      std::move(UnknownNSketch::Create(UnknownNOptions{})).value()));
  backends.push_back(
      std::make_unique<KnownNSketch>(MakeKnownNForCorruption()));
  backends.push_back(
      std::make_unique<ExtremeValueSketch>(MakeExtremeForCorruption()));
  for (std::size_t b = 0; b < backends.size(); ++b) {
    QuantileEstimator& backend = *backends[b];
    for (int i = 0; i < 1000; ++i) backend.Add(static_cast<Value>(i % 97));
    const std::vector<std::uint8_t> good = backend.Serialize();
    ASSERT_GT(good.size(), kKindOffset);
    ASSERT_TRUE(backend.Restore(good).ok()) << "backend " << b;
    for (std::uint8_t retired : {4, 5, 6}) {
      std::vector<std::uint8_t> bytes = good;
      bytes[kKindOffset] = retired;
      EXPECT_EQ(backend.Restore(bytes).code(), StatusCode::kInvalidArgument)
          << "backend " << b << ", kind " << int{retired};
    }
    EXPECT_EQ(backend.Serialize(), good) << "backend " << b;
  }
}

// A NaN planted in any buffer value of an otherwise valid checkpoint must
// be rejected at decode: accepted, it would reach the query merge, whose
// ordering CHECKs abort (found by checkpoint_fuzz; RESTORE reaches this
// decoder from the network).
TEST(SketchCheckpointTest, RejectsNaNValues) {
  UnknownNParams p;
  p.b = 3;
  p.k = 16;
  p.h = 2;
  p.alpha = 0.5;
  UnknownNOptions options;
  options.params = p;
  options.seed = 5;
  UnknownNSketch sketch = std::move(UnknownNSketch::Create(options)).value();
  for (int i = 0; i < 400; ++i) sketch.Add(i + 0.25);
  const std::vector<std::uint8_t> bytes = sketch.Serialize();

  int planted = 0;
  for (std::size_t pos = 0; pos + 8 <= bytes.size(); ++pos) {
    double v;
    std::memcpy(&v, bytes.data() + pos, 8);
    if (!(v >= 0.25 && v < 400 && v - std::floor(v) == 0.25)) continue;
    std::vector<std::uint8_t> corrupted = bytes;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::memcpy(corrupted.data() + pos, &nan, 8);
    EXPECT_FALSE(UnknownNSketch::Deserialize(corrupted).ok()) << "pos=" << pos;
    ++planted;
  }
  EXPECT_GT(planted, 0);
}

// Pool parameters whose product b * k wraps 64 bits must be rejected
// before anything is allocated (found by checkpoint_fuzz). Every decoder
// below starts with i32 b then u64 k, at `b_offset`.
TEST(SketchCheckpointTest, RejectsWrappingPoolSize) {
  const auto plant = [](std::vector<std::uint8_t> bytes,
                        std::size_t b_offset) {
    StoreU32Le(bytes.data() + b_offset, 2);  // b = 2, k = 2^63: b * k == 0
    for (int i = 0; i < 8; ++i) bytes[b_offset + 4 + i] = i == 7 ? 0x80 : 0;
    return bytes;
  };
  UnknownNOptions options;
  options.eps = 0.05;
  UnknownNSketch unknown = std::move(UnknownNSketch::Create(options)).value();
  for (int i = 0; i < 100; ++i) unknown.Add(i);
  // Sketch checkpoints: magic u32, version u8, kind u8, then b.
  EXPECT_EQ(UnknownNSketch::Deserialize(plant(unknown.Serialize(), 6))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      KnownNSketch::Deserialize(plant(MakeKnownNForCorruption().Serialize(), 6))
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  // Partial summaries: magic u32, version u8, then b.
  PartialSummary summary;
  ASSERT_TRUE(unknown.ExportPartial(&summary).ok());
  std::vector<std::uint8_t> partial;
  SerializePartialSummary(summary, &partial);
  EXPECT_EQ(DeserializePartialSummary(plant(partial, 5)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SketchCheckpointTest, RejectsIllegalPoolState) {
  // Serialize a sketch whose pool has a full buffer, then rewrite that
  // buffer's payload to be unsorted by swapping two value fields. The
  // decoder must notice the pool is illegal (audit::CheckFramework runs
  // inside DeserializeFrom in every build mode) rather than accept a
  // sketch that would answer queries from corrupt runs.
  UnknownNParams p;
  p.b = 3;
  p.k = 16;
  p.h = 2;
  p.alpha = 0.5;
  UnknownNOptions options;
  options.params = p;
  options.seed = 5;
  UnknownNSketch sketch = std::move(UnknownNSketch::Create(options)).value();
  for (int i = 0; i < 400; ++i) sketch.Add(static_cast<Value>(i));
  ASSERT_GT(sketch.framework().FullWeight(), 0u);
  std::vector<std::uint8_t> bytes = sketch.Serialize();

  // Find 8-byte little-endian doubles of two adjacent ascending values in
  // some full buffer by scanning for any sorted pair and swapping them.
  int rejections = 0;
  for (std::size_t pos = 0; pos + 16 <= bytes.size(); ++pos) {
    double a;
    double b;
    std::memcpy(&a, bytes.data() + pos, 8);
    std::memcpy(&b, bytes.data() + pos + 8, 8);
    if (std::isfinite(a) && std::isfinite(b) && a < b && a >= 0 &&
        b < 400) {
      std::vector<std::uint8_t> corrupted = bytes;
      // Swap the two doubles: values become locally descending.
      std::memcpy(corrupted.data() + pos, &b, 8);
      std::memcpy(corrupted.data() + pos + 8, &a, 8);
      Result<UnknownNSketch> r = UnknownNSketch::Deserialize(corrupted);
      if (!r.ok()) ++rejections;
    }
  }
  EXPECT_GT(rejections, 0);
}

}  // namespace
}  // namespace mrl
