// Checkpoint round-trips of the known-N and extreme-value sketches. These
// cases once shared this binary with the retired QuantileSummary tests; the
// binary keeps its name so the checkpoint coverage stays where it was.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/extreme.h"
#include "core/known_n.h"
#include "core/unknown_n.h"
#include "stream/generator.h"

namespace mrl {
namespace {

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
