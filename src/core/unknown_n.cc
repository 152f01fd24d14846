#include "core/unknown_n.h"

#include <utility>

#include "core/output.h"
#include "util/audit.h"
#include "util/logging.h"
#include "util/serde.h"

namespace mrl {

Result<UnknownNSketch> UnknownNSketch::Create(const UnknownNOptions& options) {
  UnknownNParams params;
  if (options.params.has_value()) {
    params = *options.params;
    if (params.b < 2 || params.k < 1 || params.h < 1) {
      return Status::InvalidArgument(
          "explicit params require b >= 2, k >= 1, h >= 1");
    }
  } else {
    Result<UnknownNParams> solved = SolveUnknownN(options.eps, options.delta);
    if (!solved.ok()) return solved.status();
    params = solved.value();
  }
  return UnknownNSketch(params, options);
}

UnknownNSketch::UnknownNSketch(const UnknownNParams& params,
                               const UnknownNOptions& options)
    : params_(params),
      tree_(params.b, params.k, MakeCollapsePolicy(CollapsePolicyKind::kMrl),
            BlockSampler(Random(options.seed), /*rate=*/1,
                         options.ablation_first_of_block_sampling
                             ? BlockSampler::PickPolicy::kFirstOfBlock
                             : BlockSampler::PickPolicy::kUniformWithinBlock)),
      buffer_allowance_(options.buffer_allowance) {
  if (options.ablation_disable_collapse_alternation) {
    tree_.mutable_framework()->SetOffsetAlternationEnabled(false);
  }
  BeforeAcquire(tree_.mutable_framework(), 0);
}

void UnknownNSketch::BeforeAcquire(CollapseFramework* framework,
                                   std::uint64_t count) const {
  if (!buffer_allowance_) return;
  int allowed = buffer_allowance_(count + 1);
  if (allowed < 1) allowed = 1;
  if (allowed > params_.b) allowed = params_.b;
  if (allowed > framework->usable_buffers() ||
      framework->stats().leaves_created == 0) {
    framework->SetUsableBuffers(allowed);
  }
}

NewRound UnknownNSketch::NextRound(const CollapseFramework& framework) const {
  NewRound round;
  const int max_level = framework.max_level();
  if (max_level >= params_.h) {
    // Section 3.7: once the first buffer at level h+i exists (i >= 0), New
    // runs at rate 2^(i+1) and its buffers enter at level i+1.
    const int i = max_level - params_.h;
    MRL_CHECK_LT(i, 62) << "sampling rate would overflow";
    round = {Weight{1} << (i + 1), i + 1};
  }
  // New round complete: the rate/height coupling of §3.7 must hold now
  // that the rate has caught up with any collapse-driven tree growth.
  MRL_AUDIT(audit::CheckUnknownNHeight(framework, params_.h, round.rate));
  return round;
}

void UnknownNSketch::Add(Value v) { tree_.Add(v, *this); }

void UnknownNSketch::AddBatch(std::span<const Value> values) {
  tree_.AddBatch(values, *this);
}

Result<Value> UnknownNSketch::Query(double phi) const {
  return tree_.Query(phi);
}

Result<std::vector<Value>> UnknownNSketch::QueryMany(
    const std::vector<double>& phis) const {
  return tree_.QueryMany(phis);
}

Result<double> UnknownNSketch::RankOf(Value v) const {
  thread_local OutputRuns runs;
  tree_.RunsInto(&runs);
  Result<Weight> rank = WeightedRankOf(runs.runs, v);
  if (!rank.ok()) return rank.status();
  return static_cast<double>(rank.value()) /
         static_cast<double>(TotalRunWeight(runs.runs));
}

std::vector<std::uint8_t> UnknownNSketch::Serialize() const {
  std::vector<std::uint8_t> out;
  BinaryWriter writer(&out);
  PutCheckpointHeader(&writer, CheckpointKind::kUnknownN);
  writer.PutI32(params_.b);
  writer.PutU64(params_.k);
  writer.PutI32(params_.h);
  writer.PutDouble(params_.alpha);
  writer.PutU64(params_.leaves_before_sampling);
  tree_.SerializeTo(&writer, /*with_round=*/true);
  return out;
}

Result<UnknownNSketch> UnknownNSketch::Deserialize(
    std::span<const std::uint8_t> bytes,
    std::function<int(std::uint64_t)> buffer_allowance) {
  BinaryReader reader(bytes);
  MRL_RETURN_IF_ERROR(GetCheckpointHeader(&reader, CheckpointKind::kUnknownN));
  UnknownNParams params;
  std::uint64_t k;
  if (!reader.GetI32(&params.b) || !reader.GetU64(&k) ||
      !reader.GetI32(&params.h) || !reader.GetDouble(&params.alpha) ||
      !reader.GetU64(&params.leaves_before_sampling)) {
    return reader.status();
  }
  params.k = static_cast<std::size_t>(k);
  // Bound the pool we are willing to allocate for an (unauthenticated)
  // checkpoint before touching it: 2^28 elements = 2 GiB of doubles.
  if (params.b < 2 || params.b > 10000 || params.k < 1 || params.h < 1 ||
      params.k > (std::uint64_t{1} << 28) ||  // b * k below cannot wrap
      params.MemoryElements() > (std::uint64_t{1} << 28)) {
    return Status::InvalidArgument("checkpoint parameters out of range");
  }
  UnknownNOptions restore_options;
  restore_options.buffer_allowance = std::move(buffer_allowance);
  UnknownNSketch sketch(params, restore_options);
  MRL_RETURN_IF_ERROR(
      sketch.tree_.DeserializeFrom(&reader, /*with_round=*/true));
  // The §3.7 rate/height coupling, checked in every build mode (the input
  // is untrusted) with the checker the MRLQUANT_AUDIT hooks use.
  Status height = audit::CheckUnknownNHeight(
      sketch.framework(), sketch.params_.h, sketch.sampling_rate());
  if (!height.ok()) {
    return Status::InvalidArgument("checkpoint inconsistent: " +
                                   height.message());
  }
  return sketch;
}

Status UnknownNSketch::Restore(std::span<const std::uint8_t> bytes) {
  Result<UnknownNSketch> restored = Deserialize(bytes);
  if (!restored.ok()) return restored.status();
  *this = std::move(restored).value();
  return Status::OK();
}

std::vector<ShippedBuffer> UnknownNSketch::FinishAndExport() {
  tree_.mutable_framework()->CollapseAllFull();
  std::vector<ShippedBuffer> out;
  tree_.ExportBuffers(&out);
  return out;
}

Status UnknownNSketch::ExportPartial(PartialSummary* out) const {
  out->params = params_;
  out->count = tree_.count();
  // Every full buffer travels at its own weight; the coordinator re-enters
  // them at level 0 (Section 6), so skipping the worker's final collapse
  // costs nothing but frame bytes — and keeps this const.
  tree_.ExportBuffers(&out->buffers);
  return Status::OK();
}

}  // namespace mrl
