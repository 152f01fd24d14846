#ifndef MRLQUANT_CORE_SAMPLED_TREE_H_
#define MRLQUANT_CORE_SAMPLED_TREE_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/collapse_policy.h"
#include "core/framework.h"
#include "core/partial.h"
#include "core/weighted_merge.h"
#include "sampling/block_sampler.h"
#include "util/logging.h"
#include "util/serde.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/types.h"

namespace mrl {

/// Sampling rate and level of one New operation (Section 3.1).
struct NewRound {
  Weight rate = 1;
  int level = 0;
};

/// The part of New that differs between the collapse-tree sketches: the
/// rate and level each new buffer gets, and the sketch's own audits. The
/// defaults are the deterministic algorithms' rule (rate 1, level 0, no
/// audit). SampledTree consults the rule once per buffer it opens or
/// commits, never per value. The rule is passed per call rather than
/// stored, so a sketch can be its own rule and stay movable.
class NewRule {
 public:
  /// Runs before the next New acquires its slot, at stream position
  /// `count`. Dynamic buffer allocation (Section 5) resizes the usable
  /// pool here.
  virtual void BeforeAcquire(CollapseFramework* framework,
                             std::uint64_t count) const;

  /// The round of the New whose slot was just acquired. Called after the
  /// acquisition because a Collapse it triggered may have raised the tree.
  virtual NewRound NextRound(const CollapseFramework& framework) const;

  /// MRLQUANT_AUDIT hook run after each buffer commit (SampledTree
  /// already checks weight conservation there).
  virtual Status AuditCommit(const CollapseFramework& framework,
                             std::uint64_t count) const;

 protected:
  ~NewRule() = default;
};

/// The input of Output (Section 3.3): every full buffer as a weighted run,
/// then a sorted copy of the open buffer at its weight, then the sampler's
/// in-flight block candidate. The runs point into the framework and into
/// this object, so it is neither copied nor moved.
struct OutputRuns {
  OutputRuns() = default;
  OutputRuns(const OutputRuns&) = delete;
  OutputRuns& operator=(const OutputRuns&) = delete;

  /// Replaces the runs with the full buffers of `framework` plus, when
  /// `partial` is non-empty, a sorted copy of it at `partial_weight`.
  void Build(const CollapseFramework& framework,
             std::span<const Value> partial, Weight partial_weight);

  std::vector<WeightedRun> runs;
  std::vector<Value> partial_sorted;
  Value candidate = 0;  ///< storage of the in-flight block candidate's run
};

/// The sampled fill engine of Figure 1, shared by every collapse-tree
/// sketch (unknown-N, known-N, ARS, Munro–Paterson): a block sampler feeds
/// one open buffer at a time (New), full buffers are committed into the
/// collapse tree (Collapse), and Output reads the weighted runs of
/// everything held. The owning sketch supplies only its NewRule.
class SampledTree {
 public:
  SampledTree(int num_buffers, std::size_t buffer_capacity,
              std::unique_ptr<CollapsePolicy> policy, BlockSampler sampler);

  /// Consumes one element (NaN is rejected with a CHECK). Inline so the
  /// owning sketch's Add compiles to the same code as a hand-written loop.
  void Add(Value v, const NewRule& rule) {
    MRL_CHECK(!std::isnan(v)) << "NaN rejected at the sketch boundary: the "
                                 "comparison-based buffers are undefined "
                                 "over NaN (docs/algorithm.md §8)";
    if (!filling_) Open(rule);
    std::optional<Value> sample = sampler_.Add(v);
    ++count_;
    if (!sample.has_value()) return;
    Buffer& buf = framework_.buffer(fill_slot_);
    buf.Append(*sample);
    if (buf.size() == buf.capacity()) Commit(rule);
  }

  /// Batch form of Add with per-block (not per-element) sampling work and
  /// bulk buffer fills. Bit-identical to calling Add on each element in
  /// turn for any partition of the stream into batches.
  MRLQUANT_HOT void AddBatch(std::span<const Value> values,
                             const NewRule& rule);

  /// The weighted runs of everything held, into *out (capacity reused).
  void RunsInto(OutputRuns* out) const;

  /// Output over the held runs, using thread-local scratch (concurrent
  /// const queries on a quiescent sketch are part of the thread contract).
  Result<Value> Query(double phi) const;
  Result<std::vector<Value>> QueryMany(const std::vector<double>& phis) const;

  /// Section 6 hand-off: every full buffer, the open buffer and the
  /// in-flight block candidate, each tagged with its weight and whether it
  /// holds k elements.
  void ExportBuffers(std::vector<ShippedBuffer>* out) const;

  /// Sum of weights held; equals count() at all times.
  Weight HeldWeight() const;

  std::uint64_t count() const { return count_; }
  const BlockSampler& sampler() const { return sampler_; }
  const CollapseFramework& framework() const { return framework_; }
  CollapseFramework* mutable_framework() { return &framework_; }

  /// Checkpoint body: the stream count, the open-buffer fields, the
  /// sampler and the framework, in that order. `with_round` adds the open
  /// buffer's weight and level; the known-N format leaves them out because
  /// they are always its fixed rate and level 0.
  void SerializeTo(BinaryWriter* writer, bool with_round) const;

  /// Restores what SerializeTo wrote onto a freshly constructed engine and
  /// rejects trailing bytes after it. Without the round fields the
  /// checkpointed sampler must run at the rate this engine was built with.
  /// Validates the sampler state, the open buffer against the pool and
  /// weight conservation; on error the engine is left partially restored
  /// and must be discarded.
  Status DeserializeFrom(BinaryReader* reader, bool with_round);

 private:
  void Open(const NewRule& rule);
  void Commit(const NewRule& rule);

  CollapseFramework framework_;
  BlockSampler sampler_;
  std::uint64_t count_ = 0;

  bool filling_ = false;
  std::size_t fill_slot_ = 0;
  Weight fill_weight_ = 1;  ///< sampling rate of the buffer being filled
  int fill_level_ = 0;      ///< level it will be committed at

  /// Survivor staging area reused across AddBatch calls (holds at most k
  /// elements; no allocation in steady state). Not part of sketch state.
  std::vector<Value> batch_scratch_;
};

}  // namespace mrl

#endif  // MRLQUANT_CORE_SAMPLED_TREE_H_
