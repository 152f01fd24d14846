#include "core/det_reservoir.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.h"
#include "util/math.h"
#include "util/serde.h"
#include "util/sort.h"

namespace mrl {

namespace {

/// At skip degree 32 only hash == 0 survives (1 in 2^32); raising further
/// would be meaningless for a 32-bit hash.
constexpr std::uint8_t kMaxSkipDegree = 32;

constexpr std::uint32_t kCheckpointMagic = 0x4D524C51;  // "MRLQ"
constexpr std::uint8_t kCheckpointVersion = 2;
constexpr std::uint8_t kKindDetReservoir = 6;

constexpr std::uint64_t kMaxCapacity = std::uint64_t{1} << 28;

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

std::uint32_t DeterministicReservoirSketch::HashPosition(std::uint64_t seed,
                                                         std::uint64_t pos) {
  // SplitMix64 finalizer over the golden-ratio counter offset by the seed:
  // full-avalanche even for sequential positions.
  std::uint64_t z = seed + (pos + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<std::uint32_t>(z);
}

Result<DeterministicReservoirSketch> DeterministicReservoirSketch::Create(
    const DetReservoirOptions& options) {
  MRL_RETURN_IF_ERROR(ValidateEpsDelta(options.eps, options.delta));
  std::uint64_t capacity = options.capacity;
  if (capacity == 0) {
    capacity = HoeffdingSampleSize(options.eps, options.delta);
  }
  if (capacity < 1 || capacity > kMaxCapacity) {
    return Status::InvalidArgument("capacity out of range");
  }
  return DeterministicReservoirSketch(options, capacity);
}

DeterministicReservoirSketch::DeterministicReservoirSketch(
    const DetReservoirOptions& options, std::uint64_t capacity)
    : options_(options), capacity_(capacity) {
  values_.reserve(static_cast<std::size_t>(capacity));
  hashes_.reserve(static_cast<std::size_t>(capacity));
}

void DeterministicReservoirSketch::Add(Value v) {
  MRL_CHECK(!std::isnan(v)) << "NaN rejected at the sketch boundary: the "
                               "sample order is undefined over NaN";
  const std::uint32_t hash = HashPosition(options_.seed, count_);
  ++count_;
  if (!Good(hash)) return;
  if (values_.size() >= capacity_) ThinOut();
  if (!Good(hash)) return;  // the raised skip degree may exclude it now
  values_.push_back(v);
  hashes_.push_back(hash);
}

void DeterministicReservoirSketch::ThinOut() {
  while (values_.size() >= capacity_ && skip_degree_ < kMaxSkipDegree) {
    ++skip_degree_;
    std::size_t out = 0;
    for (std::size_t i = 0; i < values_.size(); ++i) {
      if (Good(hashes_[i])) {
        values_[out] = values_[i];
        hashes_[out] = hashes_[i];
        ++out;
      }
    }
    values_.resize(out);
    hashes_.resize(out);
  }
}

Result<Value> DeterministicReservoirSketch::Query(double phi) const {
  if (!(phi > 0.0) || phi > 1.0) {
    return Status::InvalidArgument("phi must be in (0, 1]");
  }
  if (values_.empty()) {
    return Status::FailedPrecondition("no elements consumed yet");
  }
  std::vector<Value> sorted = values_;
  SortValues(sorted.data(), sorted.size());
  std::size_t pos = static_cast<std::size_t>(
      std::ceil(phi * static_cast<double>(sorted.size())));
  if (pos < 1) pos = 1;
  if (pos > sorted.size()) pos = sorted.size();
  return sorted[pos - 1];
}

void DeterministicReservoirSketch::Reset(std::uint64_t seed) {
  options_.seed = seed;
  skip_degree_ = 0;
  count_ = 0;
  values_.clear();
  hashes_.clear();
}

Status DeterministicReservoirSketch::Merge(const QuantileEstimator& other) {
  const DeterministicReservoirSketch* peer =
      dynamic_cast<const DeterministicReservoirSketch*>(&other);
  if (peer == nullptr) {
    return Status::InvalidArgument(
        "deterministic reservoir can only merge with another deterministic "
        "reservoir (got " +
        other.name() + ")");
  }
  if (peer == this) {
    return Status::InvalidArgument("cannot merge a sketch into itself");
  }
  if (peer->options_.seed != options_.seed) {
    return Status::FailedPrecondition(
        "deterministic merge requires equal hash seeds");
  }
  // Adopt the stricter survival predicate, re-filter our sample under it,
  // then take the peer's survivors. Everything below is a pure function of
  // the two states — no randomness.
  if (peer->skip_degree_ > skip_degree_) {
    skip_degree_ = peer->skip_degree_;
    std::size_t out = 0;
    for (std::size_t i = 0; i < values_.size(); ++i) {
      if (Good(hashes_[i])) {
        values_[out] = values_[i];
        hashes_[out] = hashes_[i];
        ++out;
      }
    }
    values_.resize(out);
    hashes_.resize(out);
  }
  for (std::size_t i = 0; i < peer->values_.size(); ++i) {
    if (!Good(peer->hashes_[i])) continue;
    if (values_.size() >= capacity_) ThinOut();
    if (!Good(peer->hashes_[i])) continue;
    values_.push_back(peer->values_[i]);
    hashes_.push_back(peer->hashes_[i]);
  }
  count_ += peer->count_;
  return Status::OK();
}

std::vector<std::uint8_t> DeterministicReservoirSketch::Serialize() const {
  std::vector<std::uint8_t> out;
  BinaryWriter writer(&out);
  writer.PutU32(kCheckpointMagic);
  writer.PutU8(kCheckpointVersion);
  writer.PutU8(kKindDetReservoir);
  writer.PutDouble(options_.eps);
  writer.PutDouble(options_.delta);
  writer.PutU64(options_.seed);
  writer.PutU64(capacity_);
  writer.PutU8(skip_degree_);
  writer.PutU64(count_);
  writer.PutValues(values_);
  for (std::uint32_t hash : hashes_) writer.PutU32(hash);
  return out;
}

Result<DeterministicReservoirSketch> DeterministicReservoirSketch::Deserialize(
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
  if (version != kCheckpointVersion || kind != kKindDetReservoir) {
    return Status::InvalidArgument("unsupported checkpoint version or kind");
  }
  DetReservoirOptions options;
  std::uint64_t capacity, count;
  std::uint8_t skip_degree;
  std::vector<Value> values;
  if (!reader.GetDouble(&options.eps) || !reader.GetDouble(&options.delta) ||
      !reader.GetU64(&options.seed) || !reader.GetU64(&capacity) ||
      !reader.GetU8(&skip_degree) || !reader.GetU64(&count) ||
      !reader.GetValues(&values)) {
    return reader.status();
  }
  Status valid = ValidateEpsDelta(options.eps, options.delta);
  if (!valid.ok()) {
    return Status::InvalidArgument("checkpoint options invalid: " +
                                   valid.message());
  }
  if (capacity < 1 || capacity > kMaxCapacity) {
    return Status::InvalidArgument("checkpoint capacity out of range");
  }
  if (skip_degree > kMaxSkipDegree) {
    return Status::InvalidArgument("checkpoint skip degree out of range");
  }
  if (values.size() > capacity || values.size() > count) {
    return Status::InvalidArgument("checkpoint sample larger than capacity");
  }
  std::vector<std::uint32_t> hashes(values.size());
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    if (!reader.GetU32(&hashes[i])) return reader.status();
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after checkpoint");
  }
  options.capacity = capacity;
  DeterministicReservoirSketch sketch(options, capacity);
  sketch.skip_degree_ = skip_degree;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (std::isnan(values[i])) {
      return Status::InvalidArgument("checkpoint contains NaN");
    }
    if (!sketch.Good(hashes[i])) {
      // Every retained hash must satisfy the recorded skip degree; a
      // violation means the blob was corrupted or hand-edited.
      return Status::InvalidArgument("checkpoint hash tag audit failed");
    }
  }
  sketch.count_ = count;
  sketch.values_ = std::move(values);
  sketch.hashes_ = std::move(hashes);
  return sketch;
}

Status DeterministicReservoirSketch::Restore(
    std::span<const std::uint8_t> bytes) {
  Result<DeterministicReservoirSketch> restored =
      Deserialize(std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
  if (!restored.ok()) return restored.status();
  *this = std::move(restored).value();
  return Status::OK();
}

}  // namespace mrl
