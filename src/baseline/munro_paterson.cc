#include "baseline/munro_paterson.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/collapse_policy.h"
#include "util/math.h"

namespace mrl {

Result<MunroPatersonParams> SolveMunroPaterson(double eps, std::uint64_t n) {
  if (!(eps > 0.0) || eps >= 1.0) {
    return Status::InvalidArgument("eps must be in (0, 1)");
  }
  if (n == 0) {
    return Status::InvalidArgument("n must be >= 1");
  }
  MunroPatersonParams best;
  std::uint64_t best_memory = std::numeric_limits<std::uint64_t>::max();
  for (int b = 2; b <= 60; ++b) {
    // Error: height + 1 = b <= 2 eps k.
    std::uint64_t k = static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(b) / (2.0 * eps)));
    // Capacity: 2^(b-1) * k >= n.
    if (b - 1 < 63) {
      const std::uint64_t leaves = std::uint64_t{1} << (b - 1);
      k = std::max(k, CeilDiv(n, leaves));
    }
    const std::uint64_t memory = static_cast<std::uint64_t>(b) * k;
    if (memory < best_memory) {
      best_memory = memory;
      best.b = b;
      best.k = static_cast<std::size_t>(k);
      best.n = n;
    }
  }
  return best;
}

Result<MunroPatersonSketch> MunroPatersonSketch::Create(
    const Options& options) {
  MunroPatersonParams params;
  if (options.params.has_value()) {
    params = *options.params;
    if (params.b < 2 || params.k < 1) {
      return Status::InvalidArgument("params require b >= 2, k >= 1");
    }
  } else {
    Result<MunroPatersonParams> solved =
        SolveMunroPaterson(options.eps, options.n);
    if (!solved.ok()) return solved.status();
    params = solved.value();
  }
  return MunroPatersonSketch(params);
}

MunroPatersonSketch::MunroPatersonSketch(const MunroPatersonParams& params)
    : params_(params),
      tree_(params.b, params.k,
            MakeCollapsePolicy(CollapsePolicyKind::kMunroPaterson),
            BlockSampler(Random(0))) {}

void MunroPatersonSketch::Add(Value v) { tree_.Add(v, *this); }

void MunroPatersonSketch::AddBatch(std::span<const Value> values) {
  tree_.AddBatch(values, *this);
}

Result<Value> MunroPatersonSketch::Query(double phi) const {
  return tree_.Query(phi);
}

}  // namespace mrl
