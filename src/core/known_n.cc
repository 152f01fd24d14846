#include "core/known_n.h"

#include "util/audit.h"
#include "util/logging.h"
#include "util/serde.h"

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
      tree_(params.b, params.k, MakeCollapsePolicy(CollapsePolicyKind::kMrl),
            BlockSampler(Random(seed), params.rate)) {}

NewRound KnownNSketch::NextRound(
    const CollapseFramework& /*framework*/) const {
  return {params_.rate, /*level=*/0};
}

Status KnownNSketch::AuditCommit(const CollapseFramework& framework,
                                 std::uint64_t count) const {
  if (!audit_height_budget_ || count > params_.n) return Status::OK();
  return audit::CheckKnownNHeight(framework, params_.h);
}

void KnownNSketch::Add(Value v) { tree_.Add(v, *this); }

void KnownNSketch::AddBatch(std::span<const Value> values) {
  tree_.AddBatch(values, *this);
}

Result<Value> KnownNSketch::Query(double phi) const {
  if (overflowed()) {
    return Status::FailedPrecondition(
        "stream exceeded the declared n; the known-N guarantee is void");
  }
  return tree_.Query(phi);
}

Result<std::vector<Value>> KnownNSketch::QueryMany(
    const std::vector<double>& phis) const {
  if (overflowed()) {
    return Status::FailedPrecondition(
        "stream exceeded the declared n; the known-N guarantee is void");
  }
  return tree_.QueryMany(phis);
}

std::vector<std::uint8_t> KnownNSketch::Serialize() const {
  std::vector<std::uint8_t> out;
  BinaryWriter writer(&out);
  PutCheckpointHeader(&writer, CheckpointKind::kKnownN);
  writer.PutI32(params_.b);
  writer.PutU64(params_.k);
  writer.PutI32(params_.h);
  writer.PutU64(params_.rate);
  writer.PutDouble(params_.alpha);
  writer.PutU64(params_.n);
  tree_.SerializeTo(&writer, /*with_round=*/false);
  return out;
}

Result<KnownNSketch> KnownNSketch::Deserialize(
    std::span<const std::uint8_t> bytes) {
  BinaryReader reader(bytes);
  MRL_RETURN_IF_ERROR(GetCheckpointHeader(&reader, CheckpointKind::kKnownN));
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
  KnownNSketch sketch(params, /*seed=*/0);
  MRL_RETURN_IF_ERROR(
      sketch.tree_.DeserializeFrom(&reader, /*with_round=*/false));
  return sketch;
}

Status KnownNSketch::Restore(std::span<const std::uint8_t> bytes) {
  Result<KnownNSketch> restored = Deserialize(bytes);
  if (!restored.ok()) return restored.status();
  *this = std::move(restored).value();
  return Status::OK();
}

}  // namespace mrl
