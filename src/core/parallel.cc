#include "core/parallel.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "core/output.h"
#include "core/sampled_tree.h"
#include "util/audit.h"
#include "util/logging.h"
#include "util/sort.h"

namespace mrl {

namespace {
// The coordinator gets a generous pool so its own tree stays shallow (its
// height with b buffers after P ingested leaves grows like the inverse of
// C(b+h-1, h)); 16 buffers keep it within a few levels for hundreds of
// workers.
constexpr int kMinCoordinatorBuffers = 16;
}  // namespace

Result<UnknownNParams> SolveParallelWorker(const ParallelOptions& options) {
  if (options.num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  if (options.coordinator_extra_height < 0) {
    return Status::InvalidArgument("coordinator_extra_height must be >= 0");
  }
  return SolveUnknownN(options.eps, options.delta,
                       options.coordinator_extra_height);
}

ParallelCoordinator::ParallelCoordinator(const UnknownNParams& params,
                                         std::uint64_t seed)
    : k_(params.k),
      framework_(std::max(params.b, kMinCoordinatorBuffers), params.k,
                 MakeCollapsePolicy(CollapsePolicyKind::kMrl)),
      rng_(seed) {
  staging_.reserve(2 * k_);
}

void ParallelCoordinator::Ingest(std::vector<ShippedBuffer> shipped) {
  for (ShippedBuffer& buf : shipped) {
    if (buf.values.empty()) continue;
    received_weight_ +=
        static_cast<Weight>(buf.values.size()) * buf.weight;
    if (buf.full) {
      MRL_CHECK_EQ(buf.values.size(), k_);
      SortValues(buf.values.data(), buf.values.size());
      framework_.IngestFull(std::move(buf.values), buf.weight, /*level=*/0);
    } else {
      MRL_CHECK_LT(buf.values.size(), k_);
      StagePartial(std::move(buf.values), buf.weight);
    }
  }
  // Ingest round complete: the tree was audited by IngestFull; B0 must be
  // back under k elements with a consistent weight.
  MRL_AUDIT(audit::CheckCoordinatorStaging(staging_.size(), k_,
                                           staging_weight_));
  MRL_AUDIT(audit::CheckFramework(framework_));
}

void ParallelCoordinator::StagePartial(std::vector<Value> values,
                                       Weight weight) {
  if (staging_.empty()) {
    staging_ = std::move(values);
    staging_weight_ = weight;
    PromoteStaging();
    return;
  }
  if (staging_weight_ != weight) {
    // Section 6: shrink the lighter buffer by sampling at the weight ratio,
    // then re-weight it to the heavier weight. Weights here are not always
    // integer multiples (partial blocks), so we use Bernoulli inclusion
    // with p = w_lo / w_hi, which conserves weight in expectation.
    const Weight hi = std::max(staging_weight_, weight);
    const Weight lo = std::min(staging_weight_, weight);
    const double p = static_cast<double>(lo) / static_cast<double>(hi);
    // In-place compaction: same Bernoulli draw per element in the same
    // order as the old copy-out loop, so the RNG sequence and the kept
    // set are bit-identical, with no allocation.
    auto shrink = [&](std::vector<Value>* v) {
      auto keep_end = v->begin();
      for (Value x : *v) {
        if (rng_.Bernoulli(p)) *keep_end++ = x;
      }
      v->erase(keep_end, v->end());
    };
    if (staging_weight_ < weight) {
      shrink(&staging_);
    } else {
      shrink(&values);
    }
    staging_weight_ = hi;
  }
  staging_.insert(staging_.end(), values.begin(), values.end());
  PromoteStaging();
}

void ParallelCoordinator::PromoteStaging() {
  while (staging_.size() >= k_) {
    // Sort the first k in place and copy them into the framework's own
    // storage; the sorted prefix is then erased, so the surviving suffix
    // (and therefore the promoted buffer content) is bit-identical to the
    // old copy-out-then-erase implementation, without the per-promotion
    // allocation.
    const auto prefix_end = staging_.begin() + static_cast<long>(k_);
    SortValues(staging_.data(), k_);
    framework_.IngestFullCopy(staging_.data(), k_, staging_weight_,
                              /*level=*/0);
    staging_.erase(staging_.begin(), prefix_end);
  }
  if (staging_.empty()) staging_weight_ = 0;
}

Result<Value> ParallelCoordinator::Query(double phi) const {
  Result<std::vector<Value>> r = QueryMany({phi});
  if (!r.ok()) return r.status();
  return r.value()[0];
}

Result<std::vector<Value>> ParallelCoordinator::QueryMany(
    const std::vector<double>& phis) const {
  // Thread-local (not member) scratch: concurrent const queries on a
  // quiescent coordinator stay race-free. B0 is the partial run.
  thread_local OutputRuns runs;
  runs.Build(framework_, staging_, staging_weight_);
  return WeightedQuantiles(runs.runs, phis);
}

Result<std::vector<Value>> ParallelQuantiles(
    const std::vector<std::vector<Value>>& shards,
    const ParallelOptions& options, const std::vector<double>& phis) {
  if (shards.empty()) {
    return Status::InvalidArgument("need at least one shard");
  }
  ParallelOptions opts = options;
  opts.num_workers = static_cast<int>(shards.size());
  Result<UnknownNParams> params = SolveParallelWorker(opts);
  if (!params.ok()) return params.status();

  Random seeder(options.seed);
  std::vector<UnknownNSketch> workers;
  workers.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    UnknownNOptions worker_options;
    worker_options.params = params.value();
    worker_options.seed = seeder.NextUint64();
    Result<UnknownNSketch> w = UnknownNSketch::Create(worker_options);
    if (!w.ok()) return w.status();
    workers.push_back(std::move(w).value());
  }

  // Workers run independently, one thread each, with no communication
  // until termination (Section 6).
  {
    std::vector<std::thread> threads;
    threads.reserve(shards.size());
    for (std::size_t i = 0; i < shards.size(); ++i) {
      threads.emplace_back(
          [&workers, &shards, i] { workers[i].AddAll(shards[i]); });
    }
    for (std::thread& t : threads) t.join();
  }

  ParallelCoordinator coordinator(params.value(), seeder.NextUint64());
  for (UnknownNSketch& w : workers) {
    coordinator.Ingest(w.FinishAndExport());
  }
  return coordinator.QueryMany(phis);
}

}  // namespace mrl
