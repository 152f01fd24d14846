#ifndef MRLQUANT_CORE_UNKNOWN_N_H_
#define MRLQUANT_CORE_UNKNOWN_N_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/estimator.h"
#include "core/framework.h"
#include "core/params.h"
#include "core/partial.h"
#include "core/sampled_tree.h"
#include "util/thread_annotations.h"
#include "util/status.h"
#include "util/types.h"

namespace mrl {

/// Configuration for UnknownNSketch.
struct UnknownNOptions {
  /// Maximum normalized rank error of answers.
  double eps = 0.01;
  /// Failure probability: every answer is eps-approximate with probability
  /// at least 1 - delta, for any stream length and arrival order.
  double delta = 1e-4;
  /// Seed of the sketch's private random generator.
  std::uint64_t seed = 1;
  /// Explicit (b, k, h, alpha) override; when absent, SolveUnknownN picks
  /// the memory-optimal parameters.
  std::optional<UnknownNParams> params;
  /// Dynamic buffer allocation (Section 5): when set, the sketch only uses
  /// `buffer_allowance(n)` of its b buffers while the stream position is n
  /// (clamped to [1, b]; must be nondecreasing in n). Produced by
  /// DynamicAllocationPlanner; leave unset for the standard algorithm.
  std::function<int(std::uint64_t)> buffer_allowance;
  /// ABLATION ONLY (bench/ablation_*): replace the uniform within-block
  /// pick by deterministic first-of-block sampling. Voids the guarantee on
  /// adversarial arrival orders — that demonstration is its entire point.
  bool ablation_first_of_block_sampling = false;
  /// ABLATION ONLY: freeze the even-weight Collapse offset instead of
  /// alternating it (Section 3.2).
  bool ablation_disable_collapse_alternation = false;
};

/// The paper's headline algorithm (Sections 3–4): single-pass,
/// eps-approximate quantiles with probability >= 1 - delta, using O(1)
/// working memory independent of the stream length, *without knowing the
/// stream length in advance*.
///
/// Structure (Figure 1): a non-uniform block sampler feeds a deterministic
/// collapse tree. New buffers enter at level 0 and sampling rate 1 until
/// the tree reaches height h; each time the tree grows one level past h,
/// the sampling rate doubles and new buffers enter one level higher
/// (Section 3.7). Output is non-destructive, so the sketch can serve
/// anytime queries over every prefix — the online-aggregation property the
/// paper highlights.
///
/// Usage:
///   UnknownNOptions options;
///   options.eps = 0.01;
///   options.delta = 1e-4;
///   auto sketch = UnknownNSketch::Create(options);
///   MRL_CHECK(sketch.ok());
///   for (Value v : stream) sketch.value().Add(v);
///   Result<Value> median = sketch.value().Query(0.5);
class UnknownNSketch : public QuantileEstimator, private NewRule {
 public:
  /// Validates options and solves for parameters.
  static Result<UnknownNSketch> Create(const UnknownNOptions& options);

  UnknownNSketch(UnknownNSketch&&) = default;
  UnknownNSketch& operator=(UnknownNSketch&&) = default;

  void Add(Value v) override;

  /// Batch ingestion fast path: consumes the span with per-block (not
  /// per-element) sampling work and bulk buffer fills between collapse
  /// checks. Bit-identical to calling Add on each element in turn under the
  /// same seed — same sampler state, same collapse tree, same answers — for
  /// any partition of the stream into batches.
  MRLQUANT_HOT void AddBatch(std::span<const Value> values) override;

  std::uint64_t count() const override { return tree_.count(); }
  Result<Value> Query(double phi) const override;
  std::uint64_t MemoryElements() const override {
    return params_.MemoryElements();
  }
  std::string name() const override { return "mrl99_unknown_n"; }

  /// Batch query: one merge pass for all of `phis` (any order).
  Result<std::vector<Value>> QueryMany(
      const std::vector<double>& phis) const override;

  /// Dual query: the approximate normalized rank of `v` — the fraction of
  /// consumed elements that are <= v, accurate to within eps with the same
  /// probability as Query. Powers selectivity estimation (Section 1.1).
  Result<double> RankOf(Value v) const;

  const UnknownNParams& params() const { return params_; }

  /// Current block-sampling rate r (1 until the tree reaches height h,
  /// then 2, 4, ... as the tree grows).
  Weight sampling_rate() const { return tree_.sampler().rate(); }

  /// Memory in use right now: allocated buffers times k. Differs from
  /// MemoryElements() only under dynamic buffer allocation.
  std::uint64_t CurrentMemoryElements() const {
    return static_cast<std::uint64_t>(framework().usable_buffers()) *
           params_.k;
  }

  /// Tree statistics (collapses, their weight sum, leaves, height).
  const TreeStats& tree_stats() const { return framework().stats(); }

  /// Sum of weights currently represented by the sketch; equals count()
  /// at all times (an invariant the tests rely on).
  Weight HeldWeight() const { return tree_.HeldWeight(); }

  /// Internal framework, exposed read-only for white-box tests.
  const CollapseFramework& framework() const { return tree_.framework(); }

  /// Checkpointing: encodes the complete sketch state (parameters, buffer
  /// pool, sampler with its in-flight block, counters) so a DBMS operator
  /// can suspend and resume a scan. The byte format is versioned;
  /// Deserialize rejects truncated or inconsistent input with a Status
  /// rather than crashing.
  std::vector<std::uint8_t> Serialize() const override;

  /// In-place restore from Serialize() output (the interface-driven
  /// counterpart of the static Deserialize; registry recovery uses it).
  /// Any dynamic buffer-allowance schedule is dropped, as with
  /// Deserialize's default argument. On error the sketch is unchanged.
  Status Restore(std::span<const std::uint8_t> bytes) override;

  /// Restores a sketch from Serialize() output. `buffer_allowance` is a
  /// function and cannot be encoded; when the original sketch ran under a
  /// dynamic allocation schedule (Section 5), pass the same allowance
  /// again, otherwise leave it null.
  static Result<UnknownNSketch> Deserialize(
      std::span<const std::uint8_t> bytes,
      std::function<int(std::uint64_t)> buffer_allowance = nullptr);

  /// Worker-side termination for the parallel algorithm (Section 6):
  /// performs the final Collapse over all full buffers and returns
  /// ExportPartial's buffers: at most one full buffer plus the in-progress
  /// buffer and the in-flight block candidate, each tagged with its weight.
  /// The sketch must not be used afterwards.
  std::vector<ShippedBuffer> FinishAndExport();

  /// Non-destructive counterpart of FinishAndExport for the distributed
  /// tier: copies every full buffer, the in-progress partial and the
  /// in-flight block candidate into a PartialSummary without the final
  /// collapse, so the sketch keeps serving afterwards. Safe under the
  /// concurrent const-reader contract (a query-side snapshot, copied out).
  /// The registry's FETCH_SUMMARY path calls it; it always succeeds.
  Status ExportPartial(PartialSummary* out) const;

 private:
  UnknownNSketch(const UnknownNParams& params, const UnknownNOptions& options);

  // NewRule: the §5 buffer allowance at stream position count + 1, and the
  // §3.7 rate doubling once the tree grows past height h.
  void BeforeAcquire(CollapseFramework* framework,
                     std::uint64_t count) const override;
  NewRound NextRound(const CollapseFramework& framework) const override;

  UnknownNParams params_;
  SampledTree tree_;
  std::function<int(std::uint64_t)> buffer_allowance_;
};

}  // namespace mrl

#endif  // MRLQUANT_CORE_UNKNOWN_N_H_
