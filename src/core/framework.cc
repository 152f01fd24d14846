#include "core/framework.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/collapse.h"
#include "util/audit.h"
#include "util/logging.h"

namespace mrl {

CollapseFramework::CollapseFramework(int num_buffers,
                                     std::size_t buffer_capacity,
                                     std::unique_ptr<CollapsePolicy> policy)
    : buffer_capacity_(buffer_capacity), policy_(std::move(policy)) {
  MRL_CHECK_GE(num_buffers, 2);
  MRL_CHECK_GE(buffer_capacity, 1u);
  MRL_CHECK(policy_ != nullptr);
  buffers_.reserve(static_cast<std::size_t>(num_buffers));
  for (int i = 0; i < num_buffers; ++i) {
    buffers_.emplace_back(buffer_capacity);
  }
  usable_buffers_ = num_buffers;
}

void CollapseFramework::SetUsableBuffers(int m) {
  MRL_CHECK_GE(m, 1);
  MRL_CHECK_LE(m, num_buffers());
  // Shrinking is only legal while the excluded slots are still empty
  // (i.e. before they were ever used); growth is always legal.
  for (std::size_t i = static_cast<std::size_t>(m); i < buffers_.size();
       ++i) {
    MRL_CHECK(buffers_[i].state() == BufferState::kEmpty)
        << "cannot exclude non-empty slot " << i;
  }
  usable_buffers_ = m;
}

std::size_t CollapseFramework::AcquireEmptySlot() {
  const std::size_t usable = static_cast<std::size_t>(usable_buffers_);
  for (std::size_t i = 0; i < usable; ++i) {
    if (buffers_[i].state() == BufferState::kEmpty) return i;
  }
  MRL_CHECK_EQ(CountState(BufferState::kFilling), 0u)
      << "cannot collapse while a buffer is being filled";
  CollapseOnce();
  for (std::size_t i = 0; i < usable; ++i) {
    if (buffers_[i].state() == BufferState::kEmpty) return i;
  }
  MRL_CHECK(false) << "Collapse freed no buffer";
  return 0;
}

void CollapseFramework::CollapseOnce() {
#ifdef MRLQUANT_AUDIT
  const Weight full_weight_before = FullWeight();
#endif
  FullBuffersInto(&scratch_.full);
  policy_->ChooseInto(scratch_.full, &scratch_.decision);
  const CollapsePolicy::Decision& d = scratch_.decision;
  MRL_CHECK_GE(d.indices.size(), 2u);
  scratch_.inputs.clear();
  for (std::size_t idx : d.indices) {
    MRL_CHECK_LT(idx, buffers_.size());
    scratch_.inputs.push_back(&buffers_[idx]);
  }
  Weight w = Collapse(scratch_.inputs, /*output_slot=*/0, d.output_level,
                      &even_low_offset_, &scratch_);
  if (!alternation_enabled_) even_low_offset_ = true;
  ++stats_.num_collapses;
  stats_.sum_collapse_weights += w;
  stats_.max_level = std::max(stats_.max_level, d.output_level);
#ifdef MRLQUANT_AUDIT
  MRL_AUDIT(audit::CheckCollapseConservation(full_weight_before,
                                             FullWeight()));
#endif
  MRL_AUDIT(audit::CheckFramework(*this));
}

void CollapseFramework::CommitFull(std::size_t slot, Weight weight,
                                   int level) {
  MRL_CHECK_LT(slot, buffers_.size());
  buffers_[slot].MarkFull(weight, level);
  ++stats_.leaves_created;
  stats_.max_level = std::max(stats_.max_level, level);
  MRL_AUDIT(audit::CheckFramework(*this));
}

void CollapseFramework::IngestFull(std::vector<Value> sorted, Weight weight,
                                   int level) {
  std::size_t slot = AcquireEmptySlot();
  buffers_[slot].AssignSorted(std::move(sorted), weight, level);
  ++stats_.leaves_created;
  stats_.max_level = std::max(stats_.max_level, level);
  MRL_AUDIT(audit::CheckFramework(*this));
}

void CollapseFramework::IngestFullCopy(const Value* sorted, std::size_t n,
                                       Weight weight, int level) {
  std::size_t slot = AcquireEmptySlot();
  buffers_[slot].AssignSortedCopy(sorted, n, weight, level);
  ++stats_.leaves_created;
  stats_.max_level = std::max(stats_.max_level, level);
  MRL_AUDIT(audit::CheckFramework(*this));
}

bool CollapseFramework::CollapseAllFull() {
  FullBuffersInto(&scratch_.full);
  if (scratch_.full.size() < 2) return false;
  scratch_.inputs.clear();
  int max_level = 0;
  for (const FullBufferInfo& f : scratch_.full) {
    scratch_.inputs.push_back(&buffers_[f.index]);
    max_level = std::max(max_level, f.level);
  }
  Weight w = Collapse(scratch_.inputs, /*output_slot=*/0, max_level + 1,
                      &even_low_offset_, &scratch_);
  if (!alternation_enabled_) even_low_offset_ = true;
  ++stats_.num_collapses;
  stats_.sum_collapse_weights += w;
  stats_.max_level = std::max(stats_.max_level, max_level + 1);
  MRL_AUDIT(audit::CheckFramework(*this));
  return true;
}

std::size_t CollapseFramework::CountState(BufferState s) const {
  std::size_t n = 0;
  for (const Buffer& b : buffers_) {
    if (b.state() == s) ++n;
  }
  return n;
}

std::vector<FullBufferInfo> CollapseFramework::FullBuffers() const {
  std::vector<FullBufferInfo> out;
  FullBuffersInto(&out);
  return out;
}

void CollapseFramework::FullBuffersInto(
    std::vector<FullBufferInfo>* out) const {
  out->clear();
  for (std::size_t i = 0; i < buffers_.size(); ++i) {
    if (buffers_[i].state() == BufferState::kFull) {
      out->push_back({i, buffers_[i].level(), buffers_[i].weight()});
    }
  }
}

std::vector<WeightedRun> CollapseFramework::FullBufferRuns() const {
  std::vector<WeightedRun> runs;
  FullBufferRunsInto(&runs);
  return runs;
}

void CollapseFramework::FullBufferRunsInto(
    std::vector<WeightedRun>* out) const {
  out->clear();
  for (const Buffer& b : buffers_) {
    if (b.state() == BufferState::kFull) {
      out->push_back({b.values().data(), b.size(), b.weight()});
    }
  }
}

void CollapseFramework::SerializeTo(BinaryWriter* writer) const {
  writer->PutU8(even_low_offset_ ? 1 : 0);
  writer->PutI32(usable_buffers_);
  writer->PutU64(stats_.num_collapses);
  writer->PutU64(stats_.sum_collapse_weights);
  writer->PutU64(stats_.leaves_created);
  writer->PutI32(stats_.max_level);
  writer->PutU32(static_cast<std::uint32_t>(buffers_.size()));
  for (const Buffer& b : buffers_) {
    writer->PutU8(static_cast<std::uint8_t>(b.state()));
    writer->PutU64(b.weight());
    writer->PutI32(b.level());
    writer->PutValues(b.values());
  }
}

Status CollapseFramework::DeserializeFrom(BinaryReader* reader) {
  std::uint8_t even_low;
  std::int32_t usable;
  TreeStats stats;
  std::uint32_t pool_size;
  if (!reader->GetU8(&even_low) || !reader->GetI32(&usable) ||
      !reader->GetU64(&stats.num_collapses) ||
      !reader->GetU64(&stats.sum_collapse_weights) ||
      !reader->GetU64(&stats.leaves_created) ||
      !reader->GetI32(&stats.max_level) || !reader->GetU32(&pool_size)) {
    return reader->status();
  }
  if (pool_size != buffers_.size()) {
    return Status::InvalidArgument(
        "checkpoint pool size does not match this framework");
  }
  if (usable < 1 || usable > num_buffers()) {
    return Status::InvalidArgument("checkpoint usable_buffers out of range");
  }
  std::vector<Buffer> restored;
  restored.reserve(buffers_.size());
  for (std::uint32_t i = 0; i < pool_size; ++i) {
    std::uint8_t state_byte;
    std::uint64_t weight;
    std::int32_t level;
    std::vector<Value> values;
    if (!reader->GetU8(&state_byte) || !reader->GetU64(&weight) ||
        !reader->GetI32(&level) || !reader->GetValues(&values)) {
      return reader->status();
    }
    // NaN would reach the query merge, whose ordering CHECKs assume a
    // total order: the same boundary the sketches enforce on Add.
    if (std::any_of(values.begin(), values.end(),
                    [](Value v) { return std::isnan(v); })) {
      return Status::InvalidArgument("checkpoint buffer holds NaN");
    }
    Buffer buf(buffer_capacity_);
    switch (state_byte) {
      case static_cast<std::uint8_t>(BufferState::kEmpty):
        if (!values.empty()) {
          return Status::InvalidArgument("empty buffer with values");
        }
        break;
      case static_cast<std::uint8_t>(BufferState::kFilling):
        if (values.size() >= buffer_capacity_) {
          return Status::InvalidArgument("filling buffer already full");
        }
        buf.StartFill();
        for (Value v : values) buf.Append(v);
        break;
      case static_cast<std::uint8_t>(BufferState::kFull):
        if (values.size() != buffer_capacity_ || weight < 1 || level < 0 ||
            !std::is_sorted(values.begin(), values.end())) {
          return Status::InvalidArgument("malformed full buffer");
        }
        buf.AssignSorted(std::move(values), weight, level);
        break;
      default:
        return Status::InvalidArgument("unknown buffer state");
    }
    restored.push_back(std::move(buf));
  }
  buffers_ = std::move(restored);
  even_low_offset_ = (even_low != 0);
  usable_buffers_ = usable;
  stats_ = stats;
  // A checkpoint is untrusted input: re-derive the whole-pool legality via
  // the invariant auditor in every build mode, rejecting (rather than
  // crashing on) states no legal operation sequence can produce — e.g. a
  // non-empty buffer beyond usable_buffers, two kFilling buffers, or a
  // buffer level above the recorded tree height.
  Status legal = audit::CheckFramework(*this);
  if (!legal.ok()) {
    return Status::InvalidArgument("checkpoint pool illegal: " +
                                   legal.message());
  }
  return Status::OK();
}

Weight CollapseFramework::FullWeight() const {
  Weight total = 0;
  for (const Buffer& b : buffers_) {
    if (b.state() == BufferState::kFull) total += b.TotalWeight();
  }
  return total;
}

std::string CollapseFramework::DebugString() const {
  std::string out = "CollapseFramework{b=" + std::to_string(num_buffers()) +
                    " k=" + std::to_string(buffer_capacity_) +
                    " usable=" + std::to_string(usable_buffers_) +
                    " collapses=" + std::to_string(stats_.num_collapses) +
                    " W=" + std::to_string(stats_.sum_collapse_weights) +
                    " leaves=" + std::to_string(stats_.leaves_created) +
                    " height=" + std::to_string(stats_.max_level) + "\n";
  for (std::size_t i = 0; i < buffers_.size(); ++i) {
    const Buffer& b = buffers_[i];
    out += "  [" + std::to_string(i) + "] " + BufferStateName(b.state());
    if (b.state() != BufferState::kEmpty) {
      out += " level=" + std::to_string(b.level()) +
             " weight=" + std::to_string(b.weight()) +
             " size=" + std::to_string(b.size()) + "/" +
             std::to_string(b.capacity());
    }
    out += "\n";
  }
  out += "}";
  return out;
}

}  // namespace mrl
