#ifndef MRLQUANT_CORE_FRAMEWORK_H_
#define MRLQUANT_CORE_FRAMEWORK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/buffer.h"
#include "core/collapse.h"
#include "core/collapse_policy.h"
#include "core/weighted_merge.h"
#include "util/serde.h"
#include "util/types.h"

namespace mrl {

/// Counters describing the collapse tree built so far; used by the analysis
/// (Lemmas 4–5 bound the output error via C and W), by tests asserting tree
/// shape (Figures 2–3), and by benchmark reports.
struct TreeStats {
  std::uint64_t num_collapses = 0;  ///< C: Collapse invocations
  Weight sum_collapse_weights = 0;  ///< W: sum of output weights of Collapses
  std::uint64_t leaves_created = 0; ///< New buffers committed full
  int max_level = 0;                ///< highest level of any buffer so far
};

/// The deterministic second stage of Figure 1: b physical buffers of k
/// elements each, a collapse policy, and the Collapse bookkeeping shared by
/// every algorithm in the MRL framework (known-N, unknown-N, the baselines,
/// and the parallel coordinator).
///
/// The framework does not sample and does not know about phi; callers fill
/// buffers (New) and read runs out of it (Output).
class CollapseFramework {
 public:
  CollapseFramework(int num_buffers, std::size_t buffer_capacity,
                    std::unique_ptr<CollapsePolicy> policy);

  CollapseFramework(const CollapseFramework&) = delete;
  CollapseFramework& operator=(const CollapseFramework&) = delete;
  CollapseFramework(CollapseFramework&&) = default;
  CollapseFramework& operator=(CollapseFramework&&) = default;

  int num_buffers() const { return static_cast<int>(buffers_.size()); }
  std::size_t buffer_capacity() const { return buffer_capacity_; }

  Buffer& buffer(std::size_t slot) { return buffers_[slot]; }
  const Buffer& buffer(std::size_t slot) const { return buffers_[slot]; }

  /// Returns the slot of an empty buffer among the first usable_buffers()
  /// slots, invoking Collapse per the policy when none exists. Requires
  /// that no buffer is currently kFilling when a collapse becomes necessary
  /// (the caller fills one buffer at a time).
  std::size_t AcquireEmptySlot();

  /// Dynamic buffer allocation (Section 5): restricts the framework to its
  /// first `m` slots (1 <= m <= num_buffers()). Shrinking below the current
  /// value is only legal while the excluded slots are still empty, i.e.
  /// right after construction.
  void SetUsableBuffers(int m);
  int usable_buffers() const { return usable_buffers_; }

  /// Promotes the kFilling buffer in `slot` to kFull with the given weight
  /// and level, updating tree statistics.
  void CommitFull(std::size_t slot, Weight weight, int level);

  /// Ingests an externally produced sorted run as a full buffer (used by
  /// the parallel coordinator, Section 6). `sorted` must have exactly
  /// buffer_capacity() elements.
  void IngestFull(std::vector<Value> sorted, Weight weight, int level);

  /// Copying variant of IngestFull: assigns the range into the target
  /// slot's existing storage, so a warmed pool allocates nothing.
  void IngestFullCopy(const Value* sorted, std::size_t n, Weight weight,
                      int level);

  /// Collapses all full buffers into one (a worker's final collapse before
  /// shipping, Section 6). Returns false (and does nothing) when fewer than
  /// two buffers are full.
  bool CollapseAllFull();

  /// Number of buffers in the given state.
  std::size_t CountState(BufferState s) const;

  /// View of every full buffer for policies / tests.
  std::vector<FullBufferInfo> FullBuffers() const;

  /// As FullBuffers, into caller-provided scratch (capacity reused).
  void FullBuffersInto(std::vector<FullBufferInfo>* out) const;

  /// Weighted runs over all full buffers; the caller appends any partial /
  /// in-flight runs before calling Output.
  std::vector<WeightedRun> FullBufferRuns() const;

  /// As FullBufferRuns, into caller-provided scratch (capacity reused).
  void FullBufferRunsInto(std::vector<WeightedRun>* out) const;

  /// Sum of TotalWeight over full buffers.
  Weight FullWeight() const;

  const TreeStats& stats() const { return stats_; }
  int max_level() const { return stats_.max_level; }

  /// One-line-per-buffer human-readable dump of the pool (state, level,
  /// weight, fill), plus the tree counters — the textual form of the
  /// paper's Figure 2/3 trees, for logs and debugging.
  std::string DebugString() const;

  const CollapsePolicy& policy() const { return *policy_; }

  /// Ablation-only: freezes the Collapse even-weight offset at the low
  /// choice instead of alternating (Section 3.2 prescribes alternation; the
  /// ablation bench quantifies the drift this prevents).
  void SetOffsetAlternationEnabled(bool enabled) {
    alternation_enabled_ = enabled;
  }

  /// Checkpointing (util/serde.h): writes the buffer pool, the collapse
  /// alternation phase, the usable-buffer count, and the tree statistics.
  void SerializeTo(BinaryWriter* writer) const;

  /// Restores state written by SerializeTo onto a freshly constructed
  /// framework with identical (num_buffers, buffer_capacity, policy).
  /// Fails (without crashing) on truncated or semantically invalid input.
  Status DeserializeFrom(BinaryReader* reader);

 private:
  void CollapseOnce();

  std::size_t buffer_capacity_;
  std::vector<Buffer> buffers_;
  int usable_buffers_ = 0;  // set to num_buffers() in the constructor
  std::unique_ptr<CollapsePolicy> policy_;
  bool even_low_offset_ = true;      // Collapse alternation phase (§3.2)
  bool alternation_enabled_ = true;  // false only in ablation runs
  TreeStats stats_;
  // Reused across collapses so steady state allocates nothing. Holds only
  // transient per-collapse state; safe to move with the framework because
  // every collapse rebuilds it from scratch.
  CollapseScratch scratch_;
};

}  // namespace mrl

#endif  // MRLQUANT_CORE_FRAMEWORK_H_
