#include "core/sharded.h"

#include <cstdlib>
#include <utility>

#include "core/params.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/serde.h"

namespace mrl {

Result<ShardedQuantileSketch> ShardedQuantileSketch::Create(
    const Options& options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  // Solve once; all shards share parameters (and so the same eps).
  Result<UnknownNParams> params = SolveUnknownN(options.eps, options.delta);
  if (!params.ok()) return params.status();
  Random seeder(options.seed);
  std::vector<UnknownNSketch> shards;
  shards.reserve(static_cast<std::size_t>(options.num_shards));
  for (int i = 0; i < options.num_shards; ++i) {
    UnknownNOptions shard_options;
    shard_options.params = params.value();
    shard_options.seed = seeder.NextUint64();
    Result<UnknownNSketch> shard = UnknownNSketch::Create(shard_options);
    if (!shard.ok()) return shard.status();
    shards.push_back(std::move(shard).value());
  }
  return ShardedQuantileSketch(std::move(shards), options.seed);
}

Result<ShardedQuantileSketch> ShardedQuantileSketch::FromShards(
    std::vector<UnknownNSketch> shards) {
  if (shards.empty()) {
    return Status::InvalidArgument("FromShards requires at least one shard");
  }
  for (const UnknownNSketch& s : shards) {
    if (s.params().b != shards.front().params().b ||
        s.params().k != shards.front().params().k) {
      return Status::InvalidArgument(
          "FromShards requires all shards to share (b, k)");
    }
  }
  return ShardedQuantileSketch(std::move(shards));
}

void ShardedQuantileSketch::Reset() { Reset(seed_); }

void ShardedQuantileSketch::Reset(std::uint64_t seed) {
  seed_ = seed;
  rr_cursor_ = 0;
  // Re-derive the per-shard seeds exactly as Create does.
  Random seeder(seed);
  for (UnknownNSketch& s : shards_) s.Reset(seeder.NextUint64());
}

void ShardedQuantileSketch::ShardIndexFatal(int shard) const {
  MRL_CHECK(false) << "shard index " << shard << " outside [0, "
                   << shards_.size() << ")";
  std::abort();  // unreachable; MRL_CHECK(false) aborts
}

void ShardedQuantileSketch::Add(int shard, Value v) {
  CheckShardIndex(shard);
  shards_[static_cast<std::size_t>(shard)].Add(v);
}

void ShardedQuantileSketch::AddBatch(int shard,
                                     std::span<const Value> values) {
  CheckShardIndex(shard);
  shards_[static_cast<std::size_t>(shard)].AddBatch(values);
}

void ShardedQuantileSketch::Add(Value v) {
  shards_[static_cast<std::size_t>(rr_cursor_)].Add(v);
  rr_cursor_ = (rr_cursor_ + 1) % shards_.size();
}

void ShardedQuantileSketch::AddBatch(std::span<const Value> values) {
  const std::size_t num_shards = shards_.size();
  if (num_shards == 1) {
    shards_[0].AddBatch(values);
    return;
  }
  // Element i belongs to shard (rr_cursor_ + i) mod S — the same routing
  // the element-wise Add performs. Gathering each shard's strided slice
  // keeps that bit-identity while still driving the per-shard batch fast
  // path; the staging vector is reused across calls.
  for (std::size_t sh = 0; sh < num_shards; ++sh) {
    const std::size_t first =
        (sh + num_shards - static_cast<std::size_t>(rr_cursor_) % num_shards) %
        num_shards;
    batch_scratch_.clear();
    for (std::size_t i = first; i < values.size(); i += num_shards) {
      batch_scratch_.push_back(values[i]);
    }
    if (!batch_scratch_.empty()) {
      shards_[sh].AddBatch(std::span<const Value>(batch_scratch_.data(),
                                                  batch_scratch_.size()));
    }
  }
  rr_cursor_ = (rr_cursor_ + values.size()) % num_shards;
}

std::uint64_t ShardedQuantileSketch::count() const {
  std::uint64_t total = 0;
  for (const UnknownNSketch& s : shards_) total += s.count();
  return total;
}

namespace {

/// Per-call working set for the merged-summary query path, reused across
/// calls (thread-local: concurrent const queries on quiescent shards are
/// part of the thread contract).
struct MergedQueryScratch {
  std::vector<QuantileSummary> parts;
  std::vector<const QuantileSummary*> pointers;
  SummaryScratch weighted;
  QuantileSummary merged;
};

MergedQueryScratch& QueryScratchForThisThread() {
  thread_local MergedQueryScratch scratch;
  return scratch;
}

}  // namespace

void ShardedQuantileSketch::MergedSummaryInto(QuantileSummary* out) const {
  MergedQueryScratch& s = QueryScratchForThisThread();
  s.parts.resize(shards_.size());
  s.pointers.clear();
  std::size_t used = 0;
  for (const UnknownNSketch& shard : shards_) {
    if (shard.count() > 0) {
      shard.ExportSummaryInto(&s.parts[used]);
      s.pointers.push_back(&s.parts[used]);
      ++used;
    }
  }
  QuantileSummary::MergeInto(s.pointers, &s.weighted, out);
}

QuantileSummary ShardedQuantileSketch::MergedSummary() const {
  QuantileSummary out;
  MergedSummaryInto(&out);
  return out;
}

Result<Value> ShardedQuantileSketch::Query(double phi) const {
  MergedQueryScratch& s = QueryScratchForThisThread();
  MergedSummaryInto(&s.merged);
  return s.merged.Quantile(phi);
}

Result<std::vector<Value>> ShardedQuantileSketch::QueryMany(
    const std::vector<double>& phis) const {
  MergedQueryScratch& s = QueryScratchForThisThread();
  MergedSummaryInto(&s.merged);
  std::vector<Value> out;
  out.reserve(phis.size());
  for (double phi : phis) {
    Result<Value> q = s.merged.Quantile(phi);
    if (!q.ok()) return q.status();
    out.push_back(q.value());
  }
  return out;
}

std::uint64_t ShardedQuantileSketch::MemoryElements() const {
  std::uint64_t total = 0;
  for (const UnknownNSketch& s : shards_) total += s.MemoryElements();
  return total;
}

namespace {
constexpr std::uint32_t kMaxShards = 1024;  // matches the wire-level bound
}  // namespace

std::vector<std::uint8_t> ShardedQuantileSketch::Serialize() const {
  std::vector<std::uint8_t> out;
  BinaryWriter writer(&out);
  PutCheckpointHeader(&writer, CheckpointKind::kSharded);
  writer.PutU64(seed_);
  writer.PutU64(rr_cursor_);
  writer.PutU32(static_cast<std::uint32_t>(shards_.size()));
  for (const UnknownNSketch& s : shards_) {
    const std::vector<std::uint8_t> blob = s.Serialize();
    writer.PutU32(static_cast<std::uint32_t>(blob.size()));
    writer.PutBytes(blob.data(), blob.size());
  }
  return out;
}

Status ShardedQuantileSketch::Restore(std::span<const std::uint8_t> bytes) {
  BinaryReader reader(bytes);
  MRL_RETURN_IF_ERROR(GetCheckpointHeader(&reader, CheckpointKind::kSharded));
  std::uint64_t seed, rr_cursor;
  std::uint32_t num_shards;
  if (!reader.GetU64(&seed) || !reader.GetU64(&rr_cursor) ||
      !reader.GetU32(&num_shards)) {
    return reader.status();
  }
  if (num_shards < 1 || num_shards > kMaxShards) {
    return Status::InvalidArgument("checkpoint shard count out of range");
  }
  if (rr_cursor >= num_shards) {
    return Status::InvalidArgument("checkpoint round-robin cursor invalid");
  }
  std::vector<UnknownNSketch> shards;
  shards.reserve(num_shards);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    std::uint32_t len;
    const std::uint8_t* blob;
    if (!reader.GetU32(&len) || !reader.GetBytes(len, &blob)) {
      return reader.status();
    }
    Result<UnknownNSketch> shard = UnknownNSketch::Deserialize({blob, len});
    if (!shard.ok()) return shard.status();
    shards.push_back(std::move(shard).value());
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after checkpoint");
  }
  Result<ShardedQuantileSketch> restored = FromShards(std::move(shards));
  if (!restored.ok()) return restored.status();
  *this = std::move(restored).value();
  seed_ = seed;
  rr_cursor_ = rr_cursor;
  return Status::OK();
}

Status ShardedQuantileSketch::ExportPartial(PartialSummary* out) const {
  // FromShards/Create guarantee a shared (b, k) across shards, so the
  // concatenated buffers carry one parameter set.
  out->params = shards_.front().params();
  out->count = count();
  out->buffers.clear();
  PartialSummary shard_part;
  for (const UnknownNSketch& shard : shards_) {
    MRL_RETURN_IF_ERROR(shard.ExportPartial(&shard_part));
    for (ShippedBuffer& buf : shard_part.buffers) {
      out->buffers.push_back(std::move(buf));
    }
  }
  return Status::OK();
}

}  // namespace mrl
