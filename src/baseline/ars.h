#ifndef MRLQUANT_BASELINE_ARS_H_
#define MRLQUANT_BASELINE_ARS_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/estimator.h"
#include "core/sampled_tree.h"
#include "util/status.h"
#include "util/types.h"

namespace mrl {

/// Parameters of the ARS-style baseline.
struct ArsParams {
  int b = 0;
  std::size_t k = 0;
  std::uint64_t n = 0;

  std::uint64_t MemoryElements() const {
    return static_cast<std::uint64_t>(b) * k;
  }
};

/// Sizes the Alsabti–Ranka–Singh-style baseline (collapse the entire pool
/// whenever it fills): the wide tree of height h consumes about
/// b + (h-1)(b-1) leaves, and the uniform tree bound needs h + 1 <= 2 eps k.
/// Minimizes b*k for a known N.
Result<ArsParams> SolveArs(double eps, std::uint64_t n);

/// The ARS-style algorithm realized as the framework instance with the
/// collapse-everything policy — the second known algorithm MRL98 subsumed.
class ArsSketch : public QuantileEstimator, private NewRule {
 public:
  struct Options {
    double eps = 0.01;
    std::uint64_t n = 0;
    std::optional<ArsParams> params;
  };

  static Result<ArsSketch> Create(const Options& options);

  ArsSketch(ArsSketch&&) = default;
  ArsSketch& operator=(ArsSketch&&) = default;

  void Add(Value v) override;
  void AddBatch(std::span<const Value> values) override;
  std::uint64_t count() const override { return tree_.count(); }
  Result<Value> Query(double phi) const override;
  std::uint64_t MemoryElements() const override {
    return params_.MemoryElements();
  }
  std::string name() const override { return "ars"; }

  const ArsParams& params() const { return params_; }
  const TreeStats& tree_stats() const { return tree_.framework().stats(); }

 private:
  explicit ArsSketch(const ArsParams& params);

  // The NewRule defaults apply: every New at rate 1 and level 0, so the
  // sampler passes each element through and draws no random numbers.
  ArsParams params_;
  SampledTree tree_;
};

}  // namespace mrl

#endif  // MRLQUANT_BASELINE_ARS_H_
