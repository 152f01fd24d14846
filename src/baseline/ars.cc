#include "baseline/ars.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/collapse_policy.h"
#include "util/math.h"

namespace mrl {

Result<ArsParams> SolveArs(double eps, std::uint64_t n) {
  if (!(eps > 0.0) || eps >= 1.0) {
    return Status::InvalidArgument("eps must be in (0, 1)");
  }
  if (n == 0) {
    return Status::InvalidArgument("n must be >= 1");
  }
  // For a fixed b, leaf capacity at height h is b + (h-1)(b-1) and the
  // error bound allows h <= 2 eps k - 1, so feasibility of k is monotone;
  // binary search the smallest feasible k per b.
  auto feasible = [&](int b, std::uint64_t k) {
    const double h =
        std::floor(2.0 * eps * static_cast<double>(k)) - 1.0;
    if (h < 1.0) return false;
    const double capacity =
        (static_cast<double>(b) + (h - 1.0) * static_cast<double>(b - 1)) *
        static_cast<double>(k);
    return capacity >= static_cast<double>(n);
  };
  ArsParams best;
  std::uint64_t best_memory = std::numeric_limits<std::uint64_t>::max();
  for (int b = 2; b <= 60; ++b) {
    std::uint64_t lo = 1;
    std::uint64_t hi = std::uint64_t{1} << 40;
    if (!feasible(b, hi)) continue;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (feasible(b, mid)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    const std::uint64_t memory = static_cast<std::uint64_t>(b) * lo;
    if (memory < best_memory) {
      best_memory = memory;
      best.b = b;
      best.k = static_cast<std::size_t>(lo);
      best.n = n;
    }
  }
  if (best_memory == std::numeric_limits<std::uint64_t>::max()) {
    return Status::ResourceExhausted("no feasible ARS parameters");
  }
  return best;
}

Result<ArsSketch> ArsSketch::Create(const Options& options) {
  ArsParams params;
  if (options.params.has_value()) {
    params = *options.params;
    if (params.b < 2 || params.k < 1) {
      return Status::InvalidArgument("params require b >= 2, k >= 1");
    }
  } else {
    Result<ArsParams> solved = SolveArs(options.eps, options.n);
    if (!solved.ok()) return solved.status();
    params = solved.value();
  }
  return ArsSketch(params);
}

ArsSketch::ArsSketch(const ArsParams& params)
    : params_(params),
      tree_(params.b, params.k,
            MakeCollapsePolicy(CollapsePolicyKind::kCollapseAll),
            BlockSampler(Random(0))) {}

void ArsSketch::Add(Value v) { tree_.Add(v, *this); }

void ArsSketch::AddBatch(std::span<const Value> values) {
  tree_.AddBatch(values, *this);
}

Result<Value> ArsSketch::Query(double phi) const { return tree_.Query(phi); }

}  // namespace mrl
