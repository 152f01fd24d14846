#include "core/extreme.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/math.h"
#include "util/serde.h"

namespace mrl {

namespace {

Status ValidateExtreme(double phi, double eps, double delta) {
  if (!(phi > 0.0) || phi >= 1.0 || phi == 0.5) {
    return Status::InvalidArgument(
        "extreme-value estimation needs phi in (0,1) \\ {0.5}, got " +
        std::to_string(phi));
  }
  const double tail = std::min(phi, 1.0 - phi);
  if (!(eps > 0.0) || eps > tail) {
    return Status::InvalidArgument(
        "requires 0 < eps <= min(phi, 1-phi); with eps == phi simply track "
        "Min/Max in O(1)");
  }
  if (!(delta > 0.0) || delta >= 1.0) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  return Status::OK();
}

/// Index (1-based, counted from the extreme end) of the estimate within a
/// sample of size `sample_size`: round(tail_phi * sample_size), clamped to
/// at least 1. tail_phi is phi for low quantiles and 1-phi for high ones.
std::uint64_t EstimateIndex(double tail_phi, std::uint64_t sample_size) {
  double j = std::llround(tail_phi * static_cast<double>(sample_size));
  if (j < 1.0) return 1;
  return static_cast<std::uint64_t>(j);
}

}  // namespace

Result<ExtremeValueSizing> SolveExtremeValue(double phi, double eps,
                                             double delta, std::uint64_t n) {
  MRL_RETURN_IF_ERROR(ValidateExtreme(phi, eps, delta));
  if (n == 0) {
    return Status::InvalidArgument("n must be >= 1");
  }
  const double tail = std::min(phi, 1.0 - phi);
  ExtremeValueSizing sizing;
  sizing.sample_size = SteinSampleSize(tail, eps, delta);
  sizing.k = static_cast<std::uint64_t>(
      std::ceil(tail * static_cast<double>(sizing.sample_size)));
  if (sizing.k == 0) sizing.k = 1;
  sizing.sample_probability =
      std::min(1.0, static_cast<double>(sizing.sample_size) /
                        static_cast<double>(n));
  return sizing;
}

Result<ExtremeValueSketch> ExtremeValueSketch::Create(
    const ExtremeValueOptions& options) {
  Result<ExtremeValueSizing> sizing =
      SolveExtremeValue(options.phi, options.eps, options.delta, options.n);
  if (!sizing.ok()) return sizing.status();
  return ExtremeValueSketch(options, sizing.value());
}

ExtremeValueSketch::ExtremeValueSketch(const ExtremeValueOptions& options,
                                       const ExtremeValueSizing& sizing)
    : options_(options),
      sizing_(sizing),
      sampler_(Random(options.seed), sizing.sample_probability),
      heap_(static_cast<std::size_t>(sizing.k),
            /*keep_largest=*/options.phi > 0.5) {}

void ExtremeValueSketch::Add(Value v) {
  MRL_CHECK(!std::isnan(v)) << "NaN rejected at the sketch boundary: the "
                               "k-best heap order is undefined over NaN";
  ++count_;
  if (sampler_.Sample()) {
    ++heap_offered_;
    heap_.Push(v);
  }
}

Result<Value> ExtremeValueSketch::Query(double phi) const {
  const bool high = options_.phi > 0.5;
  if ((high && !(phi > 0.5)) || (!high && !(phi < 0.5))) {
    return Status::InvalidArgument(
        "this sketch was configured for the other tail");
  }
  if (heap_.empty()) {
    return Status::FailedPrecondition("no element sampled yet");
  }
  const double tail_phi = high ? (1.0 - phi) : phi;
  std::uint64_t j = EstimateIndex(tail_phi, heap_offered_);
  std::vector<Value> sorted = heap_.SortedFromExtreme();
  if (j > sorted.size()) {
    if (heap_.full()) {
      // phi is not extreme enough for this sketch's retained set.
      return Status::OutOfRange(
          "phi * sample_size exceeds the retained k elements");
    }
    j = sorted.size();  // short stream: degrade to the most interior element
  }
  return sorted[static_cast<std::size_t>(j - 1)];
}

namespace {
constexpr std::uint32_t kCheckpointMagic = 0x4D524C51;  // "MRLQ"
// Version 2: repo-wide bump (kinds 1-2 gained the sampler pick offset;
// this kind's layout is unchanged from v1).
constexpr std::uint8_t kCheckpointVersion = 2;
constexpr std::uint8_t kKindExtreme = 3;
}  // namespace

std::vector<std::uint8_t> ExtremeValueSketch::Serialize() const {
  std::vector<std::uint8_t> out;
  BinaryWriter writer(&out);
  writer.PutU32(kCheckpointMagic);
  writer.PutU8(kCheckpointVersion);
  writer.PutU8(kKindExtreme);
  writer.PutDouble(options_.phi);
  writer.PutDouble(options_.eps);
  writer.PutDouble(options_.delta);
  writer.PutU64(options_.n);
  writer.PutU64(sizing_.sample_size);
  writer.PutU64(sizing_.k);
  writer.PutDouble(sizing_.sample_probability);
  BernoulliSampler::State sampler = sampler_.SaveState();
  writer.PutU64(sampler.rng.state);
  writer.PutU64(sampler.rng.inc);
  writer.PutDouble(sampler.p);
  writer.PutU64(sampler.seen);
  writer.PutU64(sampler.kept);
  writer.PutU64(count_);
  writer.PutU64(heap_offered_);
  writer.PutValues(heap_.raw_values());
  return out;
}

Result<ExtremeValueSketch> ExtremeValueSketch::Deserialize(
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
  if (version != kCheckpointVersion || kind != kKindExtreme) {
    return Status::InvalidArgument("unsupported checkpoint version or kind");
  }
  ExtremeValueOptions options;
  ExtremeValueSizing sizing;
  if (!reader.GetDouble(&options.phi) || !reader.GetDouble(&options.eps) ||
      !reader.GetDouble(&options.delta) || !reader.GetU64(&options.n) ||
      !reader.GetU64(&sizing.sample_size) || !reader.GetU64(&sizing.k) ||
      !reader.GetDouble(&sizing.sample_probability)) {
    return reader.status();
  }
  Status valid = ValidateExtreme(options.phi, options.eps, options.delta);
  if (!valid.ok()) {
    return Status::InvalidArgument("checkpoint options invalid: " +
                                   valid.message());
  }
  if (sizing.k < 1 || sizing.k > (std::uint64_t{1} << 28) ||
      !(sizing.sample_probability > 0.0) ||
      sizing.sample_probability > 1.0) {
    return Status::InvalidArgument("checkpoint sizing out of range");
  }
  BernoulliSampler::State sampler_state;
  std::uint64_t count, offered;
  std::vector<Value> heap_values;
  if (!reader.GetU64(&sampler_state.rng.state) ||
      !reader.GetU64(&sampler_state.rng.inc) ||
      !reader.GetDouble(&sampler_state.p) ||
      !reader.GetU64(&sampler_state.seen) ||
      !reader.GetU64(&sampler_state.kept) || !reader.GetU64(&count) ||
      !reader.GetU64(&offered) || !reader.GetValues(&heap_values)) {
    return reader.status();
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after checkpoint");
  }
  if (!(sampler_state.p > 0.0) || sampler_state.p > 1.0 ||
      heap_values.size() > sizing.k ||
      heap_values.size() > offered) {
    return Status::InvalidArgument("checkpoint heap state invalid");
  }
  ExtremeValueSketch sketch(options, sizing);
  sketch.sampler_ = BernoulliSampler::FromState(sampler_state);
  sketch.heap_ = KBest::FromValues(static_cast<std::size_t>(sizing.k),
                                   options.phi > 0.5,
                                   std::move(heap_values));
  sketch.count_ = count;
  sketch.heap_offered_ = offered;
  return sketch;
}

Result<AdaptiveExtremeValueSketch> AdaptiveExtremeValueSketch::Create(
    const Options& options) {
  MRL_RETURN_IF_ERROR(
      ValidateExtreme(options.phi, options.eps, options.delta));
  const double tail = std::min(options.phi, 1.0 - options.phi);
  // Halve delta: a union bound over the (at most log2 N) rate levels is
  // overkill; the dominant level is the final one, and budgeting s* for
  // delta/2 empirically covers the subsampling noise (EXPERIMENTS.md).
  const std::uint64_t s_star =
      SteinSampleSize(tail, options.eps, options.delta / 2.0);
  // Right before a halving the sample holds up to s* elements, needing
  // ceil(tail * s*) retained; keep 2x plus slack for binomial fluctuation.
  const std::size_t capacity = static_cast<std::size_t>(
      std::ceil(2.0 * tail * static_cast<double>(s_star))) + 16;
  return AdaptiveExtremeValueSketch(options, s_star, capacity);
}

AdaptiveExtremeValueSketch::AdaptiveExtremeValueSketch(
    const Options& options, std::uint64_t budget_s, std::size_t heap_capacity)
    : options_(options),
      budget_s_(budget_s),
      rng_(options.seed),
      heap_(heap_capacity, /*keep_largest=*/options.phi > 0.5) {}

void AdaptiveExtremeValueSketch::Add(Value v) {
  ++count_;
  if (rng_.Bernoulli(probability_)) {
    ++sampled_;
    heap_.Push(v);
  }
  // Keep the expected sample size within the Stein budget: halve the
  // probability and subsample the retained set, mirroring the unknown-N
  // algorithm's rate doubling.
  if (static_cast<double>(count_) * probability_ >
      static_cast<double>(budget_s_)) {
    probability_ *= 0.5;
    std::uint64_t kept = 0;
    heap_.Filter([&](Value) {
      if (rng_.Bernoulli(0.5)) {
        ++kept;
        return true;
      }
      return false;
    });
    sampled_ = (sampled_ + 1) / 2;  // expectation; queries use sampled_
  }
}

Result<Value> AdaptiveExtremeValueSketch::Query(double phi) const {
  const bool high = options_.phi > 0.5;
  if ((high && !(phi > 0.5)) || (!high && !(phi < 0.5))) {
    return Status::InvalidArgument(
        "this sketch was configured for the other tail");
  }
  if (heap_.empty()) {
    return Status::FailedPrecondition("no element sampled yet");
  }
  const double tail_phi = high ? (1.0 - phi) : phi;
  std::uint64_t j = EstimateIndex(tail_phi, sampled_);
  std::vector<Value> sorted = heap_.SortedFromExtreme();
  if (j > sorted.size()) j = sorted.size();
  return sorted[static_cast<std::size_t>(j - 1)];
}

void ExtremeValueSketch::Reset(std::uint64_t seed) {
  options_.seed = seed;
  sampler_ = BernoulliSampler(Random(seed), sizing_.sample_probability);
  heap_.Clear();
  count_ = 0;
  heap_offered_ = 0;
}

Status ExtremeValueSketch::Restore(std::span<const std::uint8_t> bytes) {
  Result<ExtremeValueSketch> restored =
      Deserialize(std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
  if (!restored.ok()) return restored.status();
  *this = std::move(restored).value();
  return Status::OK();
}

void AdaptiveExtremeValueSketch::Reset(std::uint64_t seed) {
  options_.seed = seed;
  probability_ = 1.0;
  rng_ = Random(seed);
  heap_.Clear();
  count_ = 0;
  sampled_ = 0;
}

}  // namespace mrl
