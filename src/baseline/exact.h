#ifndef MRLQUANT_BASELINE_EXACT_H_
#define MRLQUANT_BASELINE_EXACT_H_

#include <cstdint>
#include <vector>

#include "core/estimator.h"
#include "util/status.h"
#include "util/types.h"

namespace mrl {

/// Ground truth: stores the whole stream and answers quantiles exactly.
/// Memory is Theta(N) — the very thing the paper exists to avoid (Pohl's
/// N/2 lower bound for exact one-pass medians, Section 2.1) — but it
/// anchors every accuracy measurement in the tests and benches.
class ExactQuantileEstimator : public QuantileEstimator {
 public:
  ExactQuantileEstimator() = default;

  void Add(Value v) override {
    values_.push_back(v);
    sorted_ = false;
  }
  std::uint64_t count() const override { return values_.size(); }
  Result<Value> Query(double phi) const override;
  std::uint64_t MemoryElements() const override { return values_.size(); }
  std::string name() const override { return "exact"; }

 private:
  mutable std::vector<Value> values_;
  mutable bool sorted_ = false;
};

}  // namespace mrl

#endif  // MRLQUANT_BASELINE_EXACT_H_
