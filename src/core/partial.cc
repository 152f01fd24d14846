#include "core/partial.h"

#include <cmath>
#include <utility>

#include "core/parallel.h"
#include "util/serde.h"

namespace mrl {

namespace {
// Partial-summary wire framing: header, per-buffer records. Unlike the
// sketch checkpoint ("MRLQ") this carries only the distribution content —
// no sampler or RNG state — because the consumer is a coordinator, not a
// resumed sketch.
constexpr std::uint32_t kPartialMagic = 0x4D524C50;  // "MRLP"
constexpr std::uint8_t kPartialVersion = 1;
// A producer ships at most b full buffers plus a couple of partials; even
// a wide sketch stays far below this.
constexpr std::uint64_t kMaxPartialBuffers = std::uint64_t{1} << 16;
}  // namespace

void SerializePartialSummary(const PartialSummary& summary,
                             std::vector<std::uint8_t>* out) {
  BinaryWriter writer(out);
  writer.PutU32(kPartialMagic);
  writer.PutU8(kPartialVersion);
  writer.PutI32(summary.params.b);
  writer.PutU64(summary.params.k);
  writer.PutI32(summary.params.h);
  writer.PutDouble(summary.params.alpha);
  writer.PutU64(summary.params.leaves_before_sampling);
  writer.PutU64(summary.count);
  writer.PutU32(static_cast<std::uint32_t>(summary.buffers.size()));
  for (const ShippedBuffer& buf : summary.buffers) {
    writer.PutU8(buf.full ? 1 : 0);
    writer.PutU64(buf.weight);
    writer.PutValues(buf.values);
  }
}

Result<PartialSummary> DeserializePartialSummary(
    std::span<const std::uint8_t> bytes) {
  BinaryReader reader(bytes.data(), bytes.size());
  std::uint32_t magic;
  std::uint8_t version;
  if (!reader.GetU32(&magic) || !reader.GetU8(&version)) {
    return reader.status();
  }
  if (magic != kPartialMagic) {
    return Status::InvalidArgument("not a partial summary");
  }
  if (version != kPartialVersion) {
    return Status::InvalidArgument("unsupported partial summary version");
  }
  PartialSummary summary;
  std::uint64_t k;
  std::uint32_t num_buffers;
  if (!reader.GetI32(&summary.params.b) || !reader.GetU64(&k) ||
      !reader.GetI32(&summary.params.h) ||
      !reader.GetDouble(&summary.params.alpha) ||
      !reader.GetU64(&summary.params.leaves_before_sampling) ||
      !reader.GetU64(&summary.count) || !reader.GetU32(&num_buffers)) {
    return reader.status();
  }
  summary.params.k = static_cast<std::size_t>(k);
  // The same pool caps as the sketch checkpoint decoder: bound what an
  // unauthenticated peer can make the merge allocate.
  if (summary.params.b < 2 || summary.params.b > 10000 ||
      summary.params.k < 1 || summary.params.h < 1 ||
      summary.params.k > (std::uint64_t{1} << 28) ||  // b * k cannot wrap
      summary.params.MemoryElements() > (std::uint64_t{1} << 28)) {
    return Status::InvalidArgument("partial summary parameters out of range");
  }
  if (!std::isfinite(summary.params.alpha)) {
    return Status::InvalidArgument("partial summary alpha not finite");
  }
  if (num_buffers > kMaxPartialBuffers) {
    return Status::InvalidArgument("partial summary buffer count absurd");
  }
  summary.buffers.reserve(num_buffers);
  for (std::uint32_t i = 0; i < num_buffers; ++i) {
    ShippedBuffer buf;
    std::uint8_t full;
    if (!reader.GetU8(&full) || !reader.GetU64(&buf.weight) ||
        !reader.GetValues(&buf.values)) {
      return reader.status();
    }
    buf.full = full != 0;
    if (full > 1) {
      return Status::InvalidArgument("partial summary full flag out of range");
    }
    // The coordinator CHECK-aborts on these; reject them here so wire input
    // can never reach those aborts.
    if (buf.full && buf.values.size() != summary.params.k) {
      return Status::InvalidArgument(
          "full buffer does not hold exactly k elements");
    }
    if (!buf.full && buf.values.size() >= summary.params.k) {
      return Status::InvalidArgument("partial buffer holds k or more elements");
    }
    if (!buf.values.empty() && buf.weight < 1) {
      return Status::InvalidArgument("non-empty buffer with zero weight");
    }
    for (Value v : buf.values) {
      if (std::isnan(v)) {
        return Status::InvalidArgument(
            "NaN rejected at the partial summary boundary");
      }
    }
    summary.buffers.push_back(std::move(buf));
  }
  if (!reader.AtEnd()) {
    return reader.status().ok()
               ? Status::InvalidArgument(
                     "trailing bytes after partial summary")
               : reader.status();
  }
  return summary;
}

Result<std::vector<Value>> MergePartialQuantiles(
    const std::vector<PartialSummary>& parts, std::uint64_t seed,
    const std::vector<double>& phis) {
  if (parts.empty()) {
    return Status::InvalidArgument("need at least one partial summary");
  }
  std::size_t widest = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].params.k != parts[0].params.k) {
      return Status::InvalidArgument(
          "partial summaries disagree on buffer size k");
    }
    if (parts[i].params.b > parts[widest].params.b) widest = i;
  }
  // The coordinator only needs (b, k); give it the widest pool any producer
  // used so its own tree stays at least as shallow as theirs.
  ParallelCoordinator coordinator(parts[widest].params, seed);
  for (const PartialSummary& part : parts) {
    coordinator.Ingest(part.buffers);
  }
  if (coordinator.ReceivedWeight() == 0) {
    return Status::FailedPrecondition("no elements in any partial summary");
  }
  return coordinator.QueryMany(phis);
}

}  // namespace mrl
