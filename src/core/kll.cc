#include "core/kll.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.h"
#include "util/serde.h"

namespace mrl {

namespace {

/// Level-capacity decay rate; 2/3 is the paper's choice and keeps the total
/// capacity a geometric series summing to ~3k.
constexpr double kDecay = 2.0 / 3.0;

constexpr std::uint32_t kMinK = 8;
constexpr std::uint32_t kMaxK = 1u << 16;
constexpr std::size_t kMaxLevels = 64;

Status ValidateEpsDelta(double eps, double delta) {
  if (!(eps > 0.0) || eps >= 1.0) {
    return Status::InvalidArgument("eps must be in (0, 1)");
  }
  if (!(delta > 0.0) || delta >= 1.0) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  return Status::OK();
}

}  // namespace

std::uint32_t KllSketch::SolveK(double eps, double delta) {
  // eps ~= a / k^0.9433 with a = 2.296 at 99% confidence; scale a by
  // sqrt(ln(1/delta)/ln(100)) when delta < 1e-2 (the failure probability
  // of the rank estimate decays exponentially in k * eps).
  const double widen =
      std::sqrt(std::max(1.0, std::log(1.0 / delta) / std::log(100.0)));
  const double a = 2.296 * widen;
  const double k = std::ceil(std::pow(a / eps, 1.0 / 0.9433));
  if (k < kMinK) return kMinK;
  if (k > kMaxK) return kMaxK;
  return static_cast<std::uint32_t>(k);
}

Result<KllSketch> KllSketch::Create(const KllOptions& options) {
  MRL_RETURN_IF_ERROR(ValidateEpsDelta(options.eps, options.delta));
  std::uint32_t k = options.k;
  if (k == 0) {
    k = SolveK(options.eps, options.delta);
  } else if (k < kMinK || k > kMaxK) {
    return Status::InvalidArgument("k must be in [8, 65536]");
  }
  return KllSketch(options, k);
}

KllSketch::KllSketch(const KllOptions& options, std::uint32_t k)
    : options_(options), k_(k), rng_(options.seed) {
  levels_.emplace_back();
  RecomputeCapacity();
  levels_[0].reserve(LevelCapacity(0) + 1);
}

std::size_t KllSketch::LevelCapacity(std::size_t level) const {
  const std::size_t depth = levels_.size() - 1 - level;
  const double cap = static_cast<double>(k_) *
                     std::pow(kDecay, static_cast<double>(depth));
  const double rounded = std::ceil(cap);
  return rounded < 2.0 ? 2 : static_cast<std::size_t>(rounded);
}

void KllSketch::RecomputeCapacity() {
  std::uint64_t total = 0;
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    total += LevelCapacity(l);
  }
  total_capacity_ = total;
}

void KllSketch::Add(Value v) {
  MRL_CHECK(!std::isnan(v)) << "NaN rejected at the sketch boundary: the "
                               "compactor order is undefined over NaN";
  levels_[0].push_back(v);
  ++size_;
  ++count_;
  if (size_ > total_capacity_) Compress();
}

void KllSketch::Compress() {
  while (size_ > total_capacity_) {
    std::size_t l = 0;
    while (l < levels_.size() && levels_[l].size() < LevelCapacity(l)) ++l;
    if (l == levels_.size()) break;  // all under capacity: nothing to do
    CompactLevel(l);
  }
}

void KllSketch::CompactLevel(std::size_t level) {
  if (level + 1 == levels_.size()) {
    levels_.emplace_back();
    RecomputeCapacity();
  }
  std::vector<Value>& items = levels_[level];
  SortValues(items.data(), items.size(), &scratch_);
  // An odd element is held back at this level (the sorted minimum) so that
  // pair promotion conserves total weight exactly.
  const std::size_t begin = items.size() % 2;
  const std::size_t offset = rng_.NextUint32() & 1;
  std::vector<Value>& up = levels_[level + 1];
  for (std::size_t i = begin + offset; i < items.size(); i += 2) {
    up.push_back(items[i]);
  }
  size_ -= (items.size() - begin) / 2;
  items.resize(begin);  // retains capacity: no realloc on the next fill
}

std::vector<KeyedPayload> KllSketch::SortedSummary() const {
  std::vector<KeyedPayload> summary;
  summary.reserve(static_cast<std::size_t>(size_));
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const std::uint64_t weight = std::uint64_t{1} << l;
    for (Value v : levels_[l]) summary.emplace_back(v, weight);
  }
  SortPairs(summary.data(), summary.size());
  return summary;
}

Result<Value> KllSketch::Query(double phi) const {
  std::vector<double> phis = {phi};
  Result<std::vector<Value>> answers = QueryMany(phis);
  if (!answers.ok()) return answers.status();
  return answers.value()[0];
}

Result<std::vector<Value>> KllSketch::QueryMany(
    const std::vector<double>& phis) const {
  for (double phi : phis) {
    if (!(phi > 0.0) || phi > 1.0) {
      return Status::InvalidArgument("phi must be in (0, 1]");
    }
  }
  if (count_ == 0) {
    return Status::FailedPrecondition("no elements consumed yet");
  }
  const std::vector<KeyedPayload> summary = SortedSummary();
  std::vector<Value> answers;
  answers.reserve(phis.size());
  for (double phi : phis) {
    std::uint64_t target = static_cast<std::uint64_t>(
        std::ceil(phi * static_cast<double>(count_)));
    if (target < 1) target = 1;
    if (target > count_) target = count_;
    std::uint64_t cumulative = 0;
    Value answer = summary.back().first;
    for (const KeyedPayload& record : summary) {
      cumulative += record.second;
      if (cumulative >= target) {
        answer = record.first;
        break;
      }
    }
    answers.push_back(answer);
  }
  return answers;
}

Status KllSketch::Merge(const QuantileEstimator& other) {
  const KllSketch* peer = dynamic_cast<const KllSketch*>(&other);
  if (peer == nullptr) {
    return Status::InvalidArgument(
        "KLL can only merge with another KLL sketch (got " + other.name() +
        ")");
  }
  if (peer == this) {
    return Status::InvalidArgument("cannot merge a sketch into itself");
  }
  if (peer->k_ != k_) {
    return Status::FailedPrecondition(
        "KLL merge requires equal k: " + std::to_string(k_) + " vs " +
        std::to_string(peer->k_));
  }
  while (levels_.size() < peer->levels_.size()) levels_.emplace_back();
  RecomputeCapacity();
  for (std::size_t l = 0; l < peer->levels_.size(); ++l) {
    levels_[l].insert(levels_[l].end(), peer->levels_[l].begin(),
                      peer->levels_[l].end());
  }
  size_ += peer->size_;
  count_ += peer->count_;
  Compress();
  return Status::OK();
}

std::vector<std::uint8_t> KllSketch::Serialize() const {
  std::vector<std::uint8_t> out;
  BinaryWriter writer(&out);
  PutCheckpointHeader(&writer, CheckpointKind::kKll);
  writer.PutDouble(options_.eps);
  writer.PutDouble(options_.delta);
  writer.PutU64(options_.seed);
  writer.PutU32(k_);
  writer.PutU64(count_);
  Random::State rng = rng_.SaveState();
  writer.PutU64(rng.state);
  writer.PutU64(rng.inc);
  writer.PutU32(static_cast<std::uint32_t>(levels_.size()));
  for (const std::vector<Value>& level : levels_) {
    writer.PutValues(level);
  }
  return out;
}

Result<KllSketch> KllSketch::Deserialize(
    std::span<const std::uint8_t> bytes) {
  BinaryReader reader(bytes);
  MRL_RETURN_IF_ERROR(
      GetCheckpointHeader(&reader, CheckpointKind::kKll));
  KllOptions options;
  std::uint32_t k;
  std::uint64_t count;
  Random::State rng_state;
  std::uint32_t num_levels;
  if (!reader.GetDouble(&options.eps) || !reader.GetDouble(&options.delta) ||
      !reader.GetU64(&options.seed) || !reader.GetU32(&k) ||
      !reader.GetU64(&count) || !reader.GetU64(&rng_state.state) ||
      !reader.GetU64(&rng_state.inc) || !reader.GetU32(&num_levels)) {
    return reader.status();
  }
  Status valid = ValidateEpsDelta(options.eps, options.delta);
  if (!valid.ok()) {
    return Status::InvalidArgument("checkpoint options invalid: " +
                                   valid.message());
  }
  if (k < kMinK || k > kMaxK) {
    return Status::InvalidArgument("checkpoint k out of range");
  }
  if (num_levels < 1 || num_levels > kMaxLevels) {
    return Status::InvalidArgument("checkpoint level count out of range");
  }
  options.k = k;
  KllSketch sketch(options, k);
  sketch.levels_.resize(num_levels);
  std::uint64_t held = 0;
  std::uint64_t weight = 0;
  for (std::uint32_t l = 0; l < num_levels; ++l) {
    if (!reader.GetValues(&sketch.levels_[l])) return reader.status();
    for (Value v : sketch.levels_[l]) {
      if (std::isnan(v)) {
        return Status::InvalidArgument("checkpoint contains NaN");
      }
    }
    held += sketch.levels_[l].size();
    weight += sketch.levels_[l].size() * (std::uint64_t{1} << l);
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after checkpoint");
  }
  if (held > (std::uint64_t{1} << 28)) {
    return Status::InvalidArgument("checkpoint holds too many items");
  }
  if (weight != count) {
    // Pair promotion conserves weight exactly; a mismatch means the blob
    // was corrupted or hand-edited.
    return Status::InvalidArgument(
        "checkpoint weight audit failed: held weight " +
        std::to_string(weight) + " != count " + std::to_string(count));
  }
  sketch.size_ = held;
  sketch.count_ = count;
  sketch.rng_ = Random::FromState(rng_state);
  sketch.RecomputeCapacity();
  return sketch;
}

Status KllSketch::Restore(std::span<const std::uint8_t> bytes) {
  Result<KllSketch> restored =
      Deserialize(bytes);
  if (!restored.ok()) return restored.status();
  *this = std::move(restored).value();
  return Status::OK();
}

}  // namespace mrl
