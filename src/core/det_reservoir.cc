#include "core/det_reservoir.h"

#include <cmath>

#include "util/logging.h"
#include "util/math.h"
#include "util/sort.h"

namespace mrl {

namespace {

/// At skip degree 32 only hash == 0 survives (1 in 2^32); raising further
/// would be meaningless for a 32-bit hash.
constexpr std::uint8_t kMaxSkipDegree = 32;

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

}  // namespace mrl
