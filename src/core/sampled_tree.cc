#include "core/sampled_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/output.h"
#include "util/audit.h"
#include "util/logging.h"
#include "util/sort.h"

namespace mrl {

void NewRule::BeforeAcquire(CollapseFramework* /*framework*/,
                            std::uint64_t /*count*/) const {}

NewRound NewRule::NextRound(const CollapseFramework& /*framework*/) const {
  return {};
}

Status NewRule::AuditCommit(const CollapseFramework& /*framework*/,
                            std::uint64_t /*count*/) const {
  return Status::OK();
}

void OutputRuns::Build(const CollapseFramework& framework,
                       std::span<const Value> partial,
                       Weight partial_weight) {
  partial_sorted.assign(partial.begin(), partial.end());
  SortValues(partial_sorted.data(), partial_sorted.size());
  framework.FullBufferRunsInto(&runs);
  if (!partial_sorted.empty()) {
    runs.push_back(
        {partial_sorted.data(), partial_sorted.size(), partial_weight});
  }
}

SampledTree::SampledTree(int num_buffers, std::size_t buffer_capacity,
                         std::unique_ptr<CollapsePolicy> policy,
                         BlockSampler sampler)
    : framework_(num_buffers, buffer_capacity, std::move(policy)),
      sampler_(sampler) {}

void SampledTree::Open(const NewRule& rule) {
  MRL_CHECK(!filling_);
  rule.BeforeAcquire(&framework_, count_);
  // Acquire first: a Collapse triggered here may raise the tree height,
  // which in turn determines this New's sampling rate and level.
  fill_slot_ = framework_.AcquireEmptySlot();
  const NewRound round = rule.NextRound(framework_);
  sampler_.SetRate(round.rate);
  fill_weight_ = round.rate;
  fill_level_ = round.level;
  framework_.buffer(fill_slot_).StartFill();
  filling_ = true;
}

void SampledTree::Commit([[maybe_unused]] const NewRule& rule) {
  framework_.CommitFull(fill_slot_, fill_weight_, fill_level_);
  filling_ = false;
  MRL_AUDIT(audit::CheckWeightConservation(HeldWeight(), count_));
  MRL_AUDIT(rule.AuditCommit(framework_, count_));
}

void SampledTree::AddBatch(std::span<const Value> values,
                           const NewRule& rule) {
  // NaN boundary contract: the release build traps every NaN that would
  // enter sketch state — sampled survivors (below) and the block candidate
  // left pending at return — without touching the elements the sampler
  // skips; audit builds scan the whole span here.
  MRL_AUDIT(audit::CheckNoNaN(values.data(), values.size()));
  while (!values.empty()) {
    if (!filling_) Open(rule);
    Buffer& buf = framework_.buffer(fill_slot_);
    const std::uint64_t room = buf.capacity() - buf.size();
    const Weight rate = sampler_.rate();
    // Largest element count that keeps this buffer from overfilling: the
    // sampler emits floor((pending + t) / rate) survivors for t elements,
    // so t = room * rate - pending is the exact fill-to-capacity point.
    std::uint64_t take = values.size();
    if (room < std::numeric_limits<std::uint64_t>::max() / rate) {
      take = std::min<std::uint64_t>(
          take, room * rate - sampler_.pending_count());
    }  // else the fill point exceeds any real span; consume it whole
    batch_scratch_.clear();
    sampler_.AddBatch(values.data(), static_cast<std::size_t>(take),
                      batch_scratch_);
    count_ += take;
    for (Value s : batch_scratch_) {
      MRL_CHECK(!std::isnan(s))
          << "NaN rejected at the sketch boundary (sampled survivor)";
    }
    buf.AppendSpan(batch_scratch_.data(), batch_scratch_.size());
    if (buf.size() == buf.capacity()) Commit(rule);
    values = values.subspan(static_cast<std::size_t>(take));
  }
  if (sampler_.pending_count() > 0) {
    MRL_CHECK(!std::isnan(sampler_.pending_candidate()))
        << "NaN rejected at the sketch boundary (pending block candidate)";
  }
}

void SampledTree::RunsInto(OutputRuns* out) const {
  std::span<const Value> partial;
  if (filling_) partial = framework_.buffer(fill_slot_).values();
  out->Build(framework_, partial, fill_weight_);
  if (sampler_.pending_count() > 0) {
    // The candidate is a uniform pick from the pending_count() elements of
    // the open block; weighting it by that count keeps HeldWeight == count.
    out->candidate = sampler_.pending_candidate();
    out->runs.push_back({&out->candidate, 1, sampler_.pending_count()});
  }
}

Result<Value> SampledTree::Query(double phi) const {
  thread_local OutputRuns runs;
  RunsInto(&runs);
  // Output round: everything consumed must be represented, exactly.
  MRL_AUDIT(audit::CheckWeightConservation(TotalRunWeight(runs.runs),
                                           count_));
  return WeightedQuantile(runs.runs, phi);
}

Result<std::vector<Value>> SampledTree::QueryMany(
    const std::vector<double>& phis) const {
  thread_local OutputRuns runs;
  RunsInto(&runs);
  MRL_AUDIT(audit::CheckWeightConservation(TotalRunWeight(runs.runs),
                                           count_));
  return WeightedQuantiles(runs.runs, phis);
}

void SampledTree::ExportBuffers(std::vector<ShippedBuffer>* out) const {
  const std::size_t k = framework_.buffer_capacity();
  out->clear();
  for (int i = 0; i < framework_.num_buffers(); ++i) {
    const Buffer& buf = framework_.buffer(static_cast<std::size_t>(i));
    if (buf.state() == BufferState::kFull) {
      out->push_back({buf.values(), buf.weight(), /*full=*/true});
    }
  }
  if (filling_) {
    const Buffer& buf = framework_.buffer(fill_slot_);
    if (!buf.values().empty()) {
      out->push_back({buf.values(), fill_weight_, buf.size() == k});
    }
  }
  if (sampler_.pending_count() > 0) {
    out->push_back({{sampler_.pending_candidate()},
                    sampler_.pending_count(),
                    /*full=*/k == 1});
  }
}

Weight SampledTree::HeldWeight() const {
  Weight held = framework_.FullWeight() + sampler_.pending_count();
  if (filling_) held += framework_.buffer(fill_slot_).size() * fill_weight_;
  return held;
}

void SampledTree::SerializeTo(BinaryWriter* writer, bool with_round) const {
  writer->PutU64(count_);
  writer->PutU8(filling_ ? 1 : 0);
  writer->PutU32(static_cast<std::uint32_t>(fill_slot_));
  if (with_round) {
    writer->PutU64(fill_weight_);
    writer->PutI32(fill_level_);
  }
  BlockSampler::State sampler = sampler_.SaveState();
  writer->PutU64(sampler.rng.state);
  writer->PutU64(sampler.rng.inc);
  writer->PutU64(sampler.rate);
  writer->PutU64(sampler.seen_in_block);
  writer->PutU64(sampler.pick_offset);
  writer->PutDouble(sampler.candidate);
  framework_.SerializeTo(writer);
}

Status SampledTree::DeserializeFrom(BinaryReader* reader, bool with_round) {
  std::uint64_t count;
  std::uint8_t filling;
  std::uint32_t fill_slot;
  std::uint64_t fill_weight = sampler_.rate();
  std::int32_t fill_level = 0;
  BlockSampler::State state;
  if (!reader->GetU64(&count) || !reader->GetU8(&filling) ||
      !reader->GetU32(&fill_slot) ||
      (with_round &&
       (!reader->GetU64(&fill_weight) || !reader->GetI32(&fill_level))) ||
      !reader->GetU64(&state.rng.state) || !reader->GetU64(&state.rng.inc) ||
      !reader->GetU64(&state.rate) || !reader->GetU64(&state.seen_in_block) ||
      !reader->GetU64(&state.pick_offset) ||
      !reader->GetDouble(&state.candidate)) {
    return reader->status();
  }
  if (state.rate < 1 || (!with_round && state.rate != sampler_.rate()) ||
      state.seen_in_block >= state.rate || state.pick_offset >= state.rate ||
      std::isnan(state.candidate) ||
      fill_slot >= static_cast<std::uint32_t>(framework_.num_buffers()) ||
      (filling != 0 && fill_weight < 1) ||
      // Buffers close at block ends, so a block is only ever open inside
      // an open buffer; the next New could not change the rate otherwise.
      (filling == 0 && state.seen_in_block != 0)) {
    return Status::InvalidArgument("checkpoint sampler/fill state invalid");
  }
  MRL_RETURN_IF_ERROR(framework_.DeserializeFrom(reader));
  if (!reader->AtEnd()) {
    return reader->status().ok()
               ? Status::InvalidArgument("trailing bytes after checkpoint")
               : reader->status();
  }
  sampler_ = BlockSampler::FromState(state);
  count_ = count;
  filling_ = (filling != 0);
  fill_slot_ = fill_slot;
  fill_weight_ = fill_weight;
  fill_level_ = fill_level;
  // Cross-consistency: the filling flag must agree with the pool.
  const std::size_t num_filling = framework_.CountState(BufferState::kFilling);
  if (filling_) {
    if (num_filling != 1 ||
        framework_.buffer(fill_slot_).state() != BufferState::kFilling) {
      return Status::InvalidArgument(
          "checkpoint fill slot inconsistent with pool");
    }
  } else if (num_filling != 0) {
    return Status::InvalidArgument("checkpoint has an orphan filling buffer");
  }
  // Checkpoint round: the restored state must satisfy the same invariant
  // as a live one. This runs in every build mode (the input is untrusted),
  // via the checker the MRLQUANT_AUDIT hooks use, but rejects with a
  // Status instead of aborting.
  Status conserved = audit::CheckWeightConservation(HeldWeight(), count_);
  if (!conserved.ok()) {
    return Status::InvalidArgument("checkpoint inconsistent: " +
                                   conserved.message());
  }
  return Status::OK();
}

}  // namespace mrl
