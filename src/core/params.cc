#include "core/params.h"

#include <cmath>
#include <limits>

#include "util/logging.h"
#include "util/math.h"

namespace mrl {

namespace {

constexpr int kMaxBuffers = 50;
constexpr int kMaxHeight = 50;
constexpr std::uint64_t kMaxK = std::uint64_t{1} << 40;

Status ValidateEpsDelta(double eps, double delta) {
  if (!(eps > 0.0) || eps >= 1.0) {
    return Status::InvalidArgument("eps must be in (0, 1), got " +
                                   std::to_string(eps));
  }
  if (!(delta > 0.0) || delta >= 1.0) {
    return Status::InvalidArgument("delta must be in (0, 1), got " +
                                   std::to_string(delta));
  }
  return Status::OK();
}

/// Leaf-capacity of the collapse tree with b buffers grown to height h
/// before sampling; the paper's L_d (Section 4.5).
std::uint64_t LeavesLd(int b, int h) {
  return SaturatingBinomial(static_cast<std::uint64_t>(b + h - 2),
                            static_cast<std::uint64_t>(h - 1));
}

/// The paper's L_s: leaves consumed per level once sampling is active.
std::uint64_t LeavesLs(int b, int h) {
  if (b + h - 3 < h - 1) return 1;
  return SaturatingBinomial(static_cast<std::uint64_t>(b + h - 3),
                            static_cast<std::uint64_t>(h - 1));
}

}  // namespace

Result<UnknownNParams> SolveUnknownN(double eps, double delta,
                                     int extra_height) {
  MRL_RETURN_IF_ERROR(ValidateEpsDelta(eps, delta));
  if (extra_height < 0) {
    return Status::InvalidArgument("extra_height must be >= 0");
  }

  // Derivation of the constants (DESIGN.md §2, "Substitutions"):
  //
  // Sampling (Eq. 1). Lemma 2 bounds each tail by
  //   exp(-2 (1-a)^2 eps^2 (sum n_i)^2 / sum n_i^2)
  // and (sum n_i)^2 / sum n_i^2 >= min(L_d k, (8/3) L_s k) over all tree
  // heights H. Union over both tails gives the factor 2 inside the log:
  //   min(L_d k, (8/3) L_s k) >= ln(2/delta) / (2 (1-a)^2 eps^2).
  //
  // Tree (Eq. 2 / Eq. 3). Lemma 4/5 bound the weighted rank error of the
  // tree by roughly (height+1)/2 per consumed element; we use the
  // conservative uniform form (h + 1)/2 <= a*eps*k (the paper subtracts a
  // policy-dependent c >= 0 from h; dropping it can only increase k).
  UnknownNParams best;
  std::uint64_t best_memory = std::numeric_limits<std::uint64_t>::max();

  const double log_term = std::log(2.0 / delta);
  for (int b = 2; b <= kMaxBuffers; ++b) {
    for (int h = 1; h <= kMaxHeight; ++h) {
      const std::uint64_t ld = LeavesLd(b, h);
      const std::uint64_t ls = LeavesLs(b, h);
      const double leaf_min =
          std::min(static_cast<double>(ld), (8.0 / 3.0) *
                                                static_cast<double>(ls));
      // k >= c1 / (1-a)^2  and  k >= c2 / a.
      const double c1 = log_term / (2.0 * eps * eps * leaf_min);
      const double c2 =
          static_cast<double>(h + extra_height + 1) / (2.0 * eps);
      // The max of the two lower bounds is minimized where they cross:
      // c2 a^2 - (2 c2 + c1) a + c2 = 0; smaller root, computed stably.
      const double bq = 2.0 * c2 + c1;
      const double disc = bq * bq - 4.0 * c2 * c2;
      MRL_DCHECK_GE(disc, 0.0);
      const double alpha = 2.0 * c2 / (bq + std::sqrt(disc));
      // For large (b, h) the leaf count makes c1 smaller than one ulp of
      // c2, the root rounds to exactly 1 and k would be infinite: skip.
      if (!(alpha < 1.0)) continue;
      MRL_DCHECK(alpha > 0.0);
      const double k_real = std::max(c1 / ((1.0 - alpha) * (1.0 - alpha)),
                                     c2 / alpha);
      if (!(k_real < static_cast<double>(kMaxK))) continue;
      const std::uint64_t k = static_cast<std::uint64_t>(std::ceil(k_real));
      const std::uint64_t memory = static_cast<std::uint64_t>(b) * k;
      if (memory < best_memory) {
        best_memory = memory;
        best.b = b;
        best.k = static_cast<std::size_t>(k);
        best.h = h;
        best.alpha = alpha;
        best.leaves_before_sampling = ld;
      }
    }
  }
  if (best_memory == std::numeric_limits<std::uint64_t>::max()) {
    return Status::ResourceExhausted(
        "no feasible (b, k, h) within search bounds");
  }
  return best;
}

Result<std::uint64_t> UnknownNMemoryElements(double eps, double delta) {
  Result<UnknownNParams> p = SolveUnknownN(eps, delta);
  if (!p.ok()) return p.status();
  return p.value().MemoryElements();
}

Result<KnownNParams> SolveKnownN(double eps, double delta, std::uint64_t n) {
  MRL_RETURN_IF_ERROR(ValidateEpsDelta(eps, delta));
  if (n == 0) {
    return Status::InvalidArgument("n must be >= 1");
  }

  KnownNParams best;
  std::uint64_t best_memory = std::numeric_limits<std::uint64_t>::max();

  // Sizes the deterministic tree so that leaf capacity covers `count`
  // elements with tree guarantee `tree_eps`; minimizes b*k.
  auto solve_deterministic = [&](double tree_eps, std::uint64_t count,
                                 KnownNParams* out) -> bool {
    std::uint64_t local_best = std::numeric_limits<std::uint64_t>::max();
    for (int b = 2; b <= kMaxBuffers; ++b) {
      for (int h = 1; h <= kMaxHeight; ++h) {
        const std::uint64_t capacity_leaves = LeavesLd(b, h);
        const double k_tree =
            static_cast<double>(h + 1) / (2.0 * tree_eps);
        std::uint64_t k = static_cast<std::uint64_t>(std::ceil(k_tree));
        if (k == 0) k = 1;
        // Leaf capacity: capacity_leaves * k >= count.
        const std::uint64_t k_capacity = CeilDiv(count, capacity_leaves);
        if (k_capacity > k) k = k_capacity;
        if (k > kMaxK) continue;
        const std::uint64_t memory = static_cast<std::uint64_t>(b) * k;
        if (memory < local_best) {
          local_best = memory;
          out->b = b;
          out->k = static_cast<std::size_t>(k);
          out->h = h;
        }
      }
    }
    return local_best != std::numeric_limits<std::uint64_t>::max();
  };

  // Option (a): no sampling; the tree consumes all n elements.
  {
    KnownNParams cand;
    cand.rate = 1;
    cand.alpha = 1.0;
    cand.n = n;
    if (solve_deterministic(eps, n, &cand) &&
        cand.MemoryElements() < best_memory) {
      best = cand;
      best_memory = cand.MemoryElements();
    }
  }

  // Option (b): uniform sampling at fixed rate r = floor(n / s), where the
  // sample of size s = ln(2/delta) / (2 (1-a)^2 eps^2) absorbs (1-a)*eps of
  // the budget and the tree runs at a*eps (MRL98's randomized variant).
  for (int ai = 1; ai <= 19; ++ai) {
    const double alpha = 0.05 * ai;
    const double s_real = std::log(2.0 / delta) /
                          (2.0 * (1.0 - alpha) * (1.0 - alpha) * eps * eps);
    if (!(s_real < static_cast<double>(n))) continue;  // sampling pointless
    const std::uint64_t s = static_cast<std::uint64_t>(std::ceil(s_real));
    const Weight rate = n / s;  // r >= 1; sample size n/r >= s
    if (rate < 2) continue;
    KnownNParams cand;
    cand.rate = rate;
    cand.alpha = alpha;
    cand.n = n;
    const std::uint64_t consumed = CeilDiv(n, rate);
    if (!solve_deterministic(alpha * eps, consumed, &cand)) continue;
    if (cand.MemoryElements() < best_memory) {
      best = cand;
      best_memory = cand.MemoryElements();
    }
  }

  if (best_memory == std::numeric_limits<std::uint64_t>::max()) {
    return Status::ResourceExhausted("no feasible known-N parameters");
  }
  return best;
}

Result<std::uint64_t> KnownNMemoryElements(double eps, double delta,
                                           std::uint64_t n) {
  Result<KnownNParams> p = SolveKnownN(eps, delta, n);
  if (!p.ok()) return p.status();
  return p.value().MemoryElements();
}

std::uint64_t ReservoirMemoryElements(double eps, double delta) {
  return HoeffdingSampleSize(eps, delta);
}

Result<std::uint64_t> MultiQuantileMemoryElements(double eps, double delta,
                                                  std::uint64_t p) {
  if (p == 0) {
    return Status::InvalidArgument("p must be >= 1");
  }
  return UnknownNMemoryElements(eps, delta / static_cast<double>(p));
}

Result<std::uint64_t> PrecomputedGridMemoryElements(double eps, double delta) {
  // 2/eps grid points, each eps/2-approximate: eps -> eps/2 and
  // delta -> delta * eps / 2 by the union bound.
  return UnknownNMemoryElements(eps / 2.0, delta * eps / 2.0);
}

}  // namespace mrl
