#ifndef MRLQUANT_CORE_KNOWN_N_H_
#define MRLQUANT_CORE_KNOWN_N_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/estimator.h"
#include "core/framework.h"
#include "core/params.h"
#include "core/sampled_tree.h"
#include "util/status.h"
#include "util/types.h"

namespace mrl {

/// Configuration for KnownNSketch.
struct KnownNOptions {
  double eps = 0.01;
  double delta = 1e-4;
  /// Declared stream length. The guarantee covers streams of exactly this
  /// length; feeding more elements flips the sketch into an overflowed
  /// state where Query returns FailedPrecondition.
  std::uint64_t n = 0;
  std::uint64_t seed = 1;
  std::optional<KnownNParams> params;
};

/// The MRL98 comparator: requires N in advance. A *uniform* block sampler
/// at a fixed rate r (chosen up front from N, eps, delta) feeds the same
/// deterministic collapse tree; r = 1 degenerates to the fully
/// deterministic algorithm. This is the "Known N" line of Figure 4 and the
/// right-hand columns of Table 1.
class KnownNSketch : public QuantileEstimator, private NewRule {
 public:
  static Result<KnownNSketch> Create(const KnownNOptions& options);

  KnownNSketch(KnownNSketch&&) = default;
  KnownNSketch& operator=(KnownNSketch&&) = default;

  void Add(Value v) override;

  /// Batch ingestion fast path; bit-identical to element-wise Add under the
  /// same seed for any batching of the stream (see UnknownNSketch::AddBatch).
  void AddBatch(std::span<const Value> values) override;

  std::uint64_t count() const override { return tree_.count(); }

  /// Anytime estimate over the prefix consumed so far; the paper-grade
  /// guarantee applies at count() == n. Fails with FailedPrecondition when
  /// nothing was consumed or when the sketch overflowed its declared n.
  Result<Value> Query(double phi) const override;

  std::uint64_t MemoryElements() const override {
    return params_.MemoryElements();
  }
  std::string name() const override { return "mrl98_known_n"; }

  Result<std::vector<Value>> QueryMany(
      const std::vector<double>& phis) const override;

  const KnownNParams& params() const { return params_; }
  bool overflowed() const { return count() > params_.n; }
  const TreeStats& tree_stats() const { return framework().stats(); }
  Weight HeldWeight() const { return tree_.HeldWeight(); }

  /// Internal framework, exposed read-only for white-box tests (mirrors
  /// UnknownNSketch::framework()).
  const CollapseFramework& framework() const { return tree_.framework(); }

  /// Checkpointing, mirroring UnknownNSketch::Serialize/Deserialize.
  std::vector<std::uint8_t> Serialize() const override;
  static Result<KnownNSketch> Deserialize(
      std::span<const std::uint8_t> bytes);

  /// In-place restore from Serialize() output (see UnknownNSketch::Restore).
  Status Restore(std::span<const std::uint8_t> bytes) override;

 private:
  KnownNSketch(const KnownNParams& params, std::uint64_t seed);

  // NewRule: every New at the fixed rate r, level 0.
  NewRound NextRound(const CollapseFramework& framework) const override;
  /// The Eq. 2 height budget, when params_ came from the solver.
  Status AuditCommit(const CollapseFramework& framework,
                     std::uint64_t count) const override;

  KnownNParams params_;
  SampledTree tree_;

  /// True when params_ came from SolveKnownN, whose Eq. 2 sizing is what
  /// justifies the MRLQUANT_AUDIT tree-height check; explicit parameters
  /// make no height promise. Not checkpointed (restored sketches skip the
  /// height audit).
  bool audit_height_budget_ = false;
};

}  // namespace mrl

#endif  // MRLQUANT_CORE_KNOWN_N_H_
