#include "baseline/reservoir_quantile.h"

#include <algorithm>
#include <cmath>

#include "util/math.h"
#include "util/sort.h"

namespace mrl {

Result<ReservoirQuantileSketch> ReservoirQuantileSketch::Create(
    const Options& options) {
  if (!(options.eps > 0.0) || options.eps >= 1.0 || !(options.delta > 0.0) ||
      options.delta >= 1.0) {
    return Status::InvalidArgument("eps and delta must be in (0, 1)");
  }
  const std::size_t capacity = static_cast<std::size_t>(
      HoeffdingSampleSize(options.eps, options.delta));
  return ReservoirQuantileSketch(
      ReservoirSampler(capacity, Random(options.seed), options.method));
}

Result<Value> ReservoirQuantileSketch::Query(double phi) const {
  if (!(phi > 0.0) || phi > 1.0) {
    return Status::InvalidArgument("phi must be in (0, 1]");
  }
  const std::vector<Value>& sample = sampler_.sample();
  if (sample.empty()) {
    return Status::FailedPrecondition("no elements consumed yet");
  }
  std::vector<Value> sorted = sample;
  SortValues(sorted.data(), sorted.size());
  std::size_t pos = static_cast<std::size_t>(
      std::ceil(phi * static_cast<double>(sorted.size())));
  if (pos < 1) pos = 1;
  if (pos > sorted.size()) pos = sorted.size();
  return sorted[pos - 1];
}

}  // namespace mrl
