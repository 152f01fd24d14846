#ifndef MRLQUANT_BASELINE_MUNRO_PATERSON_H_
#define MRLQUANT_BASELINE_MUNRO_PATERSON_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/estimator.h"
#include "core/sampled_tree.h"
#include "util/status.h"
#include "util/types.h"

namespace mrl {

/// Parameters of the Munro–Paterson baseline.
struct MunroPatersonParams {
  int b = 0;
  std::size_t k = 0;
  std::uint64_t n = 0;

  std::uint64_t MemoryElements() const {
    return static_cast<std::uint64_t>(b) * k;
  }
};

/// Sizes the Munro–Paterson single-pass algorithm for a known N: a binary
/// merge tree of height b-1 over 2^(b-1) leaves of k elements, so
/// 2^(b-1) * k >= n (capacity) and b <= 2*eps*k (error; height+1 = b).
/// Minimizes b*k. Space is Theta(eps^-1 log^2(eps*N)), the bound MRL98
/// attributes to [MP80].
Result<MunroPatersonParams> SolveMunroPaterson(double eps, std::uint64_t n);

/// The Munro–Paterson algorithm (Section 2.1 antecedent), realized as the
/// framework instance with binary collapses of the two lowest-level
/// buffers. Deterministic: no sampling, guarantee holds with probability 1
/// for streams of at most the declared length.
class MunroPatersonSketch : public QuantileEstimator, private NewRule {
 public:
  struct Options {
    double eps = 0.01;
    std::uint64_t n = 0;
    std::optional<MunroPatersonParams> params;
  };

  static Result<MunroPatersonSketch> Create(const Options& options);

  MunroPatersonSketch(MunroPatersonSketch&&) = default;
  MunroPatersonSketch& operator=(MunroPatersonSketch&&) = default;

  void Add(Value v) override;
  void AddBatch(std::span<const Value> values) override;
  std::uint64_t count() const override { return tree_.count(); }
  Result<Value> Query(double phi) const override;
  std::uint64_t MemoryElements() const override {
    return params_.MemoryElements();
  }
  std::string name() const override { return "munro_paterson"; }

  const MunroPatersonParams& params() const { return params_; }
  const TreeStats& tree_stats() const { return tree_.framework().stats(); }

 private:
  explicit MunroPatersonSketch(const MunroPatersonParams& params);

  // The NewRule defaults apply: every New at rate 1 and level 0, so the
  // sampler passes each element through and draws no random numbers.
  MunroPatersonParams params_;
  SampledTree tree_;
};

}  // namespace mrl

#endif  // MRLQUANT_BASELINE_MUNRO_PATERSON_H_
