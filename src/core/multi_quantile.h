#ifndef MRLQUANT_CORE_MULTI_QUANTILE_H_
#define MRLQUANT_CORE_MULTI_QUANTILE_H_

#include <cstdint>
#include <vector>

#include "core/estimator.h"
#include "core/unknown_n.h"
#include "util/status.h"
#include "util/types.h"

namespace mrl {

/// Simultaneous computation of up to `num_quantiles` quantiles (Section
/// 4.7): the algorithm is unchanged; the analysis replaces delta by
/// delta / p (union bound), so each of the p answers is eps-approximate
/// with overall probability >= 1 - delta.
class MultiQuantileSketch : public QuantileEstimator {
 public:
  struct Options {
    double eps = 0.01;
    double delta = 1e-4;
    std::uint64_t num_quantiles = 1;  ///< p
    std::uint64_t seed = 1;
  };

  static Result<MultiQuantileSketch> Create(const Options& options);

  MultiQuantileSketch(MultiQuantileSketch&&) = default;
  MultiQuantileSketch& operator=(MultiQuantileSketch&&) = default;

  void Add(Value v) override { inner_.Add(v); }
  void AddBatch(std::span<const Value> values) override {
    inner_.AddBatch(values);
  }
  std::uint64_t count() const override { return inner_.count(); }
  Result<Value> Query(double phi) const override { return inner_.Query(phi); }
  std::uint64_t MemoryElements() const override {
    return inner_.MemoryElements();
  }
  std::string name() const override { return "mrl99_multi_quantile"; }

  /// All requested quantiles in one merge pass. The joint guarantee covers
  /// at most `num_quantiles` simultaneous answers; more is rejected.
  Result<std::vector<Value>> QueryMany(
      const std::vector<double>& phis) const override;

  std::uint64_t num_quantiles() const { return p_; }
  const UnknownNParams& params() const { return inner_.params(); }

 private:
  MultiQuantileSketch(UnknownNSketch inner, std::uint64_t p)
      : inner_(std::move(inner)), p_(p) {}

  UnknownNSketch inner_;
  std::uint64_t p_;
};

/// The pre-computation trick (Section 4.7): maintain eps/2-approximate
/// quantiles at the grid phi = eps/2, 3*eps/2, 5*eps/2, ...; answering any
/// phi with the nearest grid point is eps-approximate. Memory is
/// independent of the number of queries — useful when p is huge or unknown
/// (e.g. equi-depth histograms with p not fixed in advance).
class PrecomputedQuantiles : public QuantileEstimator {
 public:
  struct Options {
    double eps = 0.01;
    double delta = 1e-4;
    std::uint64_t seed = 1;
  };

  static Result<PrecomputedQuantiles> Create(const Options& options);

  PrecomputedQuantiles(PrecomputedQuantiles&&) = default;
  PrecomputedQuantiles& operator=(PrecomputedQuantiles&&) = default;

  void Add(Value v) override { inner_.Add(v); }
  void AddBatch(std::span<const Value> values) override {
    inner_.AddBatch(values);
  }
  std::uint64_t count() const override { return inner_.count(); }

  /// Answers any phi in (0, 1] via the nearest grid point.
  Result<Value> Query(double phi) const override;

  std::uint64_t MemoryElements() const override {
    return inner_.MemoryElements();
  }
  std::string name() const override { return "mrl99_precomputed_grid"; }

  /// The grid of quantile fractions this sketch maintains.
  const std::vector<double>& grid() const { return grid_; }

 private:
  PrecomputedQuantiles(UnknownNSketch inner, std::vector<double> grid,
                       double eps)
      : inner_(std::move(inner)), grid_(std::move(grid)), eps_(eps) {}

  UnknownNSketch inner_;
  std::vector<double> grid_;
  double eps_;
};

}  // namespace mrl

#endif  // MRLQUANT_CORE_MULTI_QUANTILE_H_
