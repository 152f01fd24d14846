#ifndef MRLQUANT_CORE_EXTREME_H_
#define MRLQUANT_CORE_EXTREME_H_

#include <cstdint>

#include "core/estimator.h"
#include "sampling/bernoulli_sampler.h"
#include "util/bounded_heap.h"
#include "util/random.h"
#include "util/status.h"
#include "util/types.h"

namespace mrl {

/// Configuration for the Section 7 extreme-value estimator.
struct ExtremeValueOptions {
  /// Target quantile; must be "extreme": phi in (0, 0.5) uses the k
  /// smallest sampled elements, phi in (0.5, 1) symmetrically uses the k
  /// largest (with phi' = 1 - phi in the sizing formulas).
  double phi = 0.01;
  double eps = 0.001;
  double delta = 1e-4;
  /// Stream length; the fixed-rate variant needs it to pick the sampling
  /// probability s/N (the paper notes this dependence explicitly).
  std::uint64_t n = 0;
  std::uint64_t seed = 1;
};

/// Derived sizing of the estimator: sample size s from Stein's lemma
/// (delta >= exp(-s D(phi;phi-eps)) + exp(-s D(phi;phi+eps))) and heap
/// size k = ceil(phi * s), so the expected rank of the k-th smallest
/// sampled element is phi * N.
struct ExtremeValueSizing {
  std::uint64_t sample_size = 0;  ///< s
  std::uint64_t k = 0;            ///< retained elements = memory footprint
  double sample_probability = 1.0;  ///< s / N, clamped to 1
};

/// Computes the sizing; fails on invalid (phi, eps, delta) or eps >= min(phi,
/// 1-phi) violations of the paper's premise eps <= phi (when eps == phi the
/// caller should just track Min/Max in O(1)).
Result<ExtremeValueSizing> SolveExtremeValue(double phi, double eps,
                                             double delta, std::uint64_t n);

/// Section 7 algorithm: Bernoulli-sample the stream at rate s/N and keep
/// only the k most extreme sampled elements in a bounded heap; the k-th
/// one (heap root) is the estimate. Memory is k elements — quantifiably
/// smaller than the general algorithm's b*k when phi is close to 0 or 1
/// (the bench/extreme_values harness reproduces that comparison).
class ExtremeValueSketch : public QuantileEstimator {
 public:
  static Result<ExtremeValueSketch> Create(const ExtremeValueOptions& options);

  ExtremeValueSketch(ExtremeValueSketch&&) = default;
  ExtremeValueSketch& operator=(ExtremeValueSketch&&) = default;

  void Add(Value v) override;
  std::uint64_t count() const override { return count_; }

  /// The estimate. Degrades gracefully when fewer than k sampled elements
  /// exist (short stream): returns the most interior retained element.
  /// Fails only when no element was sampled at all.
  Result<Value> Query(double phi) const override;

  std::uint64_t MemoryElements() const override { return sizing_.k; }
  std::string name() const override { return "extreme_value"; }

  const ExtremeValueSizing& sizing() const { return sizing_; }
  std::uint64_t sampled_count() const { return heap_offered_; }

  /// Checkpointing, mirroring UnknownNSketch::Serialize/Deserialize.
  std::vector<std::uint8_t> Serialize() const override;
  static Result<ExtremeValueSketch> Deserialize(
      std::span<const std::uint8_t> bytes);

  /// In-place restore from Serialize() output (see UnknownNSketch::Restore).
  Status Restore(std::span<const std::uint8_t> bytes) override;

 private:
  ExtremeValueSketch(const ExtremeValueOptions& options,
                     const ExtremeValueSizing& sizing);

  ExtremeValueOptions options_;
  ExtremeValueSizing sizing_;
  BernoulliSampler sampler_;
  KBest heap_;
  std::uint64_t count_ = 0;
  std::uint64_t heap_offered_ = 0;
};

/// Extension beyond the paper (documented in DESIGN.md): the same estimator
/// without advance knowledge of N. It starts at sampling probability 1 and
/// halves the probability (subsampling the retained set to match) whenever
/// the expected sample size would exceed the Stein budget, in the spirit of
/// the unknown-N algorithm's rate doubling. Memory is a constant factor
/// above the fixed-rate variant's k.
class AdaptiveExtremeValueSketch : public QuantileEstimator {
 public:
  struct Options {
    double phi = 0.01;
    double eps = 0.001;
    double delta = 1e-4;
    std::uint64_t seed = 1;
  };

  static Result<AdaptiveExtremeValueSketch> Create(const Options& options);

  AdaptiveExtremeValueSketch(AdaptiveExtremeValueSketch&&) = default;
  AdaptiveExtremeValueSketch& operator=(AdaptiveExtremeValueSketch&&) =
      default;

  void Add(Value v) override;
  std::uint64_t count() const override { return count_; }
  Result<Value> Query(double phi) const override;
  std::uint64_t MemoryElements() const override { return heap_.capacity(); }
  std::string name() const override { return "extreme_value_adaptive"; }

  double sample_probability() const { return probability_; }

 private:
  AdaptiveExtremeValueSketch(const Options& options, std::uint64_t budget_s,
                             std::size_t heap_capacity);

  Options options_;
  std::uint64_t budget_s_;   ///< Stein sample-size budget s*
  double probability_ = 1.0; ///< current inclusion probability
  Random rng_;
  KBest heap_;
  std::uint64_t count_ = 0;
  std::uint64_t sampled_ = 0;  ///< elements currently represented (kept/q)
};

}  // namespace mrl

#endif  // MRLQUANT_CORE_EXTREME_H_
