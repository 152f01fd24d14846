#ifndef MRLQUANT_CORE_DET_RESERVOIR_H_
#define MRLQUANT_CORE_DET_RESERVOIR_H_

#include <cstdint>
#include <vector>

#include "core/estimator.h"
#include "util/status.h"
#include "util/types.h"

namespace mrl {

/// Configuration for the deterministic-merge reservoir backend.
struct DetReservoirOptions {
  double eps = 0.01;
  double delta = 1e-4;
  /// Hash seed. Sketches can only merge when their seeds are equal (the
  /// seed defines the survival predicate, not a PRNG stream).
  std::uint64_t seed = 1;
  /// Sample capacity; 0 derives it from (eps, delta) via the Hoeffding
  /// bound, matching the classic reservoir baseline.
  std::uint64_t capacity = 0;
};

/// Hash-thinned reservoir in the style of ClickHouse's
/// ReservoirSamplerDeterministic: element at stream position p survives iff
/// the low `skip_degree` bits of a 32-bit position hash are zero
/// (`good(hash)`), and when the sample overflows its capacity the skip
/// degree is raised and the retained set re-filtered. There is no PRNG
/// state at all — survival is a pure function of (seed, position) — so two
/// sketches built from the same inputs are bitwise identical, and Merge is
/// deterministic and collision-exact: it adopts the larger skip degree,
/// re-filters both sides under it, and concatenates. Each retained element
/// represents 2^skip_degree stream elements, so the plain order statistic
/// of the sample estimates the quantile.
class DeterministicReservoirSketch : public QuantileEstimator {
 public:
  static Result<DeterministicReservoirSketch> Create(
      const DetReservoirOptions& options);

  DeterministicReservoirSketch(DeterministicReservoirSketch&&) = default;
  DeterministicReservoirSketch& operator=(DeterministicReservoirSketch&&) =
      default;

  void Add(Value v) override;
  std::uint64_t count() const override { return count_; }

  Result<Value> Query(double phi) const override;

  std::uint64_t MemoryElements() const override { return capacity_; }
  /// Each retained slot carries the value plus its 32-bit hash tag.
  std::uint64_t MemoryBytes() const override {
    return capacity_ * (sizeof(Value) + sizeof(std::uint32_t));
  }
  std::string name() const override { return "det_reservoir"; }

  /// Deterministic merge: requires equal hash seeds (the survival
  /// predicates must agree), adopts max(skip_degree), re-filters, and
  /// concatenates. Capacities may differ; the smaller of the two bounds the
  /// merged sample.
  Status Merge(const QuantileEstimator& other) override;

  std::vector<std::uint8_t> Serialize() const override;
  Status Restore(std::span<const std::uint8_t> bytes) override;
  static Result<DeterministicReservoirSketch> Deserialize(
      std::span<const std::uint8_t> bytes);

  std::uint8_t skip_degree() const { return skip_degree_; }
  std::uint64_t sample_size() const { return values_.size(); }

  /// 32-bit position hash: the SplitMix64 finalizer over the seed-offset
  /// golden-ratio counter (the determinator). Exposed for tests.
  static std::uint32_t HashPosition(std::uint64_t seed, std::uint64_t pos);

 private:
  DeterministicReservoirSketch(const DetReservoirOptions& options,
                               std::uint64_t capacity);

  bool Good(std::uint32_t hash) const {
    return hash == ((hash >> skip_degree_) << skip_degree_);
  }
  /// Raises skip_degree_ and re-filters until the sample fits.
  void ThinOut();

  DetReservoirOptions options_;
  std::uint64_t capacity_ = 0;
  std::uint8_t skip_degree_ = 0;
  std::uint64_t count_ = 0;
  /// Parallel arrays: retained values and their position-hash tags.
  std::vector<Value> values_;
  std::vector<std::uint32_t> hashes_;
};

}  // namespace mrl

#endif  // MRLQUANT_CORE_DET_RESERVOIR_H_
