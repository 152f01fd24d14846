#include "core/known_n.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/output.h"
#include "util/audit.h"
#include "util/logging.h"
#include "util/serde.h"
#include "util/sort.h"

namespace mrl {

Result<KnownNSketch> KnownNSketch::Create(const KnownNOptions& options) {
  KnownNParams params;
  if (options.params.has_value()) {
    params = *options.params;
    if (params.b < 2 || params.k < 1 || params.rate < 1 || params.n < 1) {
      return Status::InvalidArgument(
          "explicit params require b >= 2, k >= 1, rate >= 1, n >= 1");
    }
  } else {
    if (options.n == 0) {
      return Status::InvalidArgument("KnownNSketch requires n >= 1");
    }
    Result<KnownNParams> solved =
        SolveKnownN(options.eps, options.delta, options.n);
    if (!solved.ok()) return solved.status();
    params = solved.value();
  }
  KnownNSketch sketch(params, options.seed);
  // Only solver-produced parameters promise that the tree stays within h
  // (Eq. 2); explicit caller parameters carry no such budget, so the
  // height audit is restricted to the solved case.
  sketch.audit_height_budget_ = !options.params.has_value();
  return sketch;
}

KnownNSketch::KnownNSketch(const KnownNParams& params, std::uint64_t seed)
    : params_(params),
      framework_(params.b, params.k,
                 MakeCollapsePolicy(CollapsePolicyKind::kMrl)),
      sampler_(Random(seed), params.rate),
      seed_(seed) {}

void KnownNSketch::Reset() { Reset(seed_); }

void KnownNSketch::Reset(std::uint64_t seed) {
  seed_ = seed;
  framework_.Reset();
  sampler_ = BlockSampler(Random(seed), params_.rate);
  count_ = 0;
  filling_ = false;
  fill_slot_ = 0;
}

void KnownNSketch::StartNewFill() {
  MRL_CHECK(!filling_);
  fill_slot_ = framework_.AcquireEmptySlot();
  framework_.buffer(fill_slot_).StartFill();
  filling_ = true;
}

void KnownNSketch::Add(Value v) {
  MRL_CHECK(!std::isnan(v)) << "NaN rejected at the sketch boundary: the "
                               "comparison-based buffers are undefined over "
                               "NaN (docs/algorithm.md §8)";
  if (!filling_) StartNewFill();
  std::optional<Value> sample = sampler_.Add(v);
  ++count_;
  if (!sample.has_value()) return;
  Buffer& buf = framework_.buffer(fill_slot_);
  buf.Append(*sample);
  if (buf.size() == buf.capacity()) {
    framework_.CommitFull(fill_slot_, params_.rate, /*level=*/0);
    filling_ = false;
    AuditAfterCommit();
  }
}

void KnownNSketch::AddBatch(std::span<const Value> values) {
  // NaN boundary contract: see UnknownNSketch::AddBatch.
  MRL_AUDIT(audit::CheckNoNaN(values.data(), values.size()));
  while (!values.empty()) {
    if (!filling_) StartNewFill();
    Buffer& buf = framework_.buffer(fill_slot_);
    const std::uint64_t room = buf.capacity() - buf.size();
    const Weight rate = sampler_.rate();
    // Exact fill-to-capacity element count (see UnknownNSketch::AddBatch).
    std::uint64_t take = values.size();
    if (room < std::numeric_limits<std::uint64_t>::max() / rate) {
      take = std::min<std::uint64_t>(
          take, room * rate - sampler_.pending_count());
    }
    batch_scratch_.clear();
    sampler_.AddBatch(values.data(), static_cast<std::size_t>(take),
                      batch_scratch_);
    count_ += take;
    for (Value s : batch_scratch_) {
      MRL_CHECK(!std::isnan(s))
          << "NaN rejected at the sketch boundary (sampled survivor)";
    }
    buf.AppendSpan(batch_scratch_.data(), batch_scratch_.size());
    if (buf.size() == buf.capacity()) {
      framework_.CommitFull(fill_slot_, params_.rate, /*level=*/0);
      filling_ = false;
      AuditAfterCommit();
    }
    values = values.subspan(static_cast<std::size_t>(take));
  }
  if (sampler_.pending_count() > 0) {
    MRL_CHECK(!std::isnan(sampler_.pending_candidate()))
        << "NaN rejected at the sketch boundary (pending block candidate)";
  }
}

void KnownNSketch::AuditAfterCommit() const {
  MRL_AUDIT(audit::CheckWeightConservation(HeldWeight(), count_));
  if (audit_height_budget_ && !overflowed()) {
    MRL_AUDIT(audit::CheckKnownNHeight(framework_, params_.h));
  }
}

void KnownNSketch::SnapshotInto(RunSnapshot* snap) const {
  snap->partial_sorted.clear();
  snap->tail.clear();
  if (filling_) {
    const Buffer& buf = framework_.buffer(fill_slot_);
    if (!buf.values().empty()) {
      snap->partial_sorted.assign(buf.values().begin(), buf.values().end());
      SortValues(snap->partial_sorted.data(), snap->partial_sorted.size());
    }
  }
  if (sampler_.pending_count() > 0) {
    snap->tail.push_back(sampler_.pending_candidate());
  }
  framework_.FullBufferRunsInto(&snap->runs);
  if (!snap->partial_sorted.empty()) {
    snap->runs.push_back({snap->partial_sorted.data(),
                          snap->partial_sorted.size(), params_.rate});
  }
  if (!snap->tail.empty()) {
    snap->runs.push_back({snap->tail.data(), 1, sampler_.pending_count()});
  }
}

KnownNSketch::RunSnapshot KnownNSketch::Snapshot() const {
  RunSnapshot snap;
  SnapshotInto(&snap);
  return snap;
}

Result<Value> KnownNSketch::Query(double phi) const {
  if (overflowed()) {
    return Status::FailedPrecondition(
        "stream exceeded the declared n; the known-N guarantee is void");
  }
  thread_local RunSnapshot snap;
  SnapshotInto(&snap);
  MRL_AUDIT(audit::CheckWeightConservation(TotalRunWeight(snap.runs),
                                           count_));
  return WeightedQuantile(snap.runs, phi);
}

Result<std::vector<Value>> KnownNSketch::QueryMany(
    const std::vector<double>& phis) const {
  if (overflowed()) {
    return Status::FailedPrecondition(
        "stream exceeded the declared n; the known-N guarantee is void");
  }
  thread_local RunSnapshot snap;
  SnapshotInto(&snap);
  MRL_AUDIT(audit::CheckWeightConservation(TotalRunWeight(snap.runs),
                                           count_));
  return WeightedQuantiles(snap.runs, phis);
}

Weight KnownNSketch::HeldWeight() const {
  thread_local RunSnapshot snap;
  SnapshotInto(&snap);
  return TotalRunWeight(snap.runs);
}

namespace {
constexpr std::uint32_t kCheckpointMagic = 0x4D524C51;  // "MRLQ"
// Version 2 added the sampler's pre-drawn pick offset (docs/checkpoint_format.md).
constexpr std::uint8_t kCheckpointVersion = 2;
constexpr std::uint8_t kKindKnownN = 2;
}  // namespace

std::vector<std::uint8_t> KnownNSketch::Serialize() const {
  std::vector<std::uint8_t> out;
  BinaryWriter writer(&out);
  writer.PutU32(kCheckpointMagic);
  writer.PutU8(kCheckpointVersion);
  writer.PutU8(kKindKnownN);
  writer.PutI32(params_.b);
  writer.PutU64(params_.k);
  writer.PutI32(params_.h);
  writer.PutU64(params_.rate);
  writer.PutDouble(params_.alpha);
  writer.PutU64(params_.n);
  writer.PutU64(count_);
  writer.PutU8(filling_ ? 1 : 0);
  writer.PutU32(static_cast<std::uint32_t>(fill_slot_));
  BlockSampler::State sampler = sampler_.SaveState();
  writer.PutU64(sampler.rng.state);
  writer.PutU64(sampler.rng.inc);
  writer.PutU64(sampler.rate);
  writer.PutU64(sampler.seen_in_block);
  writer.PutU64(sampler.pick_offset);
  writer.PutDouble(sampler.candidate);
  framework_.SerializeTo(&writer);
  return out;
}

Result<KnownNSketch> KnownNSketch::Deserialize(
    const std::vector<std::uint8_t>& bytes) {
  BinaryReader reader(bytes);
  std::uint32_t magic;
  std::uint8_t version, kind;
  if (!reader.GetU32(&magic) || !reader.GetU8(&version) ||
      !reader.GetU8(&kind)) {
    return reader.status();
  }
  if (magic != kCheckpointMagic) {
    return Status::InvalidArgument("not an mrlquant checkpoint");
  }
  if (version != kCheckpointVersion || kind != kKindKnownN) {
    return Status::InvalidArgument("unsupported checkpoint version or kind");
  }
  KnownNParams params;
  std::uint64_t k;
  if (!reader.GetI32(&params.b) || !reader.GetU64(&k) ||
      !reader.GetI32(&params.h) || !reader.GetU64(&params.rate) ||
      !reader.GetDouble(&params.alpha) || !reader.GetU64(&params.n)) {
    return reader.status();
  }
  params.k = static_cast<std::size_t>(k);
  if (params.b < 2 || params.b > 10000 || params.k < 1 || params.h < 1 ||
      params.rate < 1 || params.n < 1 ||
      params.k > (std::uint64_t{1} << 28) ||  // b * k below cannot wrap
      params.MemoryElements() > (std::uint64_t{1} << 28)) {
    return Status::InvalidArgument("checkpoint parameters out of range");
  }
  std::uint64_t count;
  std::uint8_t filling;
  std::uint32_t fill_slot;
  BlockSampler::State sampler_state;
  if (!reader.GetU64(&count) || !reader.GetU8(&filling) ||
      !reader.GetU32(&fill_slot) ||
      !reader.GetU64(&sampler_state.rng.state) ||
      !reader.GetU64(&sampler_state.rng.inc) ||
      !reader.GetU64(&sampler_state.rate) ||
      !reader.GetU64(&sampler_state.seen_in_block) ||
      !reader.GetU64(&sampler_state.pick_offset) ||
      !reader.GetDouble(&sampler_state.candidate)) {
    return reader.status();
  }
  if (sampler_state.rate != params.rate ||
      sampler_state.seen_in_block >= sampler_state.rate ||
      sampler_state.pick_offset >= sampler_state.rate ||
      std::isnan(sampler_state.candidate) ||
      fill_slot >= static_cast<std::uint32_t>(params.b)) {
    return Status::InvalidArgument("checkpoint sampler/fill state invalid");
  }
  KnownNSketch sketch(params, /*seed=*/0);
  MRL_RETURN_IF_ERROR(sketch.framework_.DeserializeFrom(&reader));
  if (!reader.AtEnd()) {
    return reader.status().ok()
               ? Status::InvalidArgument("trailing bytes after checkpoint")
               : reader.status();
  }
  sketch.sampler_ = BlockSampler::FromState(sampler_state);
  sketch.count_ = count;
  sketch.filling_ = (filling != 0);
  sketch.fill_slot_ = fill_slot;
  const std::size_t num_filling =
      sketch.framework_.CountState(BufferState::kFilling);
  if (sketch.filling_) {
    if (num_filling != 1 ||
        sketch.framework_.buffer(sketch.fill_slot_).state() !=
            BufferState::kFilling) {
      return Status::InvalidArgument(
          "checkpoint fill slot inconsistent with pool");
    }
  } else if (num_filling != 0) {
    return Status::InvalidArgument("checkpoint has an orphan filling buffer");
  }
  // Checkpoint hardening (every build mode): weight held by the restored
  // pool + sampler must equal the recorded element count exactly.
  Status conserved =
      audit::CheckWeightConservation(sketch.HeldWeight(), sketch.count_);
  if (!conserved.ok()) {
    return Status::InvalidArgument("checkpoint inconsistent: " +
                                   conserved.message());
  }
  return sketch;
}

Status KnownNSketch::Restore(std::span<const std::uint8_t> bytes) {
  Result<KnownNSketch> restored =
      Deserialize(std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
  if (!restored.ok()) return restored.status();
  *this = std::move(restored).value();
  return Status::OK();
}

}  // namespace mrl
