#ifndef MRLQUANT_BASELINE_RESERVOIR_QUANTILE_H_
#define MRLQUANT_BASELINE_RESERVOIR_QUANTILE_H_

#include <cstdint>

#include "core/estimator.h"
#include "sampling/reservoir.h"
#include "util/status.h"
#include "util/types.h"

namespace mrl {

/// The folklore unknown-N baseline (Section 2.2): a reservoir sample of
/// s = O(eps^-2 log delta^-1) elements; the phi-quantile of the sample is
/// an eps-approximate phi-quantile of the stream with probability >= 1 -
/// delta. Its quadratic dependence on 1/eps is exactly what MRL99's
/// non-uniform scheme removes; the baseline-comparison bench shows the gap.
class ReservoirQuantileSketch : public QuantileEstimator {
 public:
  struct Options {
    double eps = 0.01;
    double delta = 1e-4;
    std::uint64_t seed = 1;
    ReservoirSampler::Method method = ReservoirSampler::Method::kAlgorithmX;
  };

  static Result<ReservoirQuantileSketch> Create(const Options& options);

  ReservoirQuantileSketch(ReservoirQuantileSketch&&) = default;
  ReservoirQuantileSketch& operator=(ReservoirQuantileSketch&&) = default;

  void Add(Value v) override { sampler_.Add(v); }
  std::uint64_t count() const override { return sampler_.count(); }
  Result<Value> Query(double phi) const override;
  std::uint64_t MemoryElements() const override {
    return sampler_.capacity();
  }
  std::string name() const override { return "reservoir"; }

 private:
  explicit ReservoirQuantileSketch(ReservoirSampler sampler)
      : sampler_(std::move(sampler)) {}

  ReservoirSampler sampler_;
};

}  // namespace mrl

#endif  // MRLQUANT_BASELINE_RESERVOIR_QUANTILE_H_
