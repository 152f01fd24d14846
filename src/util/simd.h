#ifndef MRLQUANT_UTIL_SIMD_H_
#define MRLQUANT_UTIL_SIMD_H_

#include <string>

namespace mrl {
namespace simd {

/// Kernel provenance and prefetch hints. The sort engine (util/sort.h) and
/// the loser-tree merge (core/weighted_merge.h) run one portable kernel on
/// every host, so there is no dispatch to resolve; what remains is the
/// stamp that bench artifacts, perfbench and the daemon's startup line
/// record, and the prefetch builtins both engines issue.

/// Name of the kernel every process runs: always "scalar". Stamped on
/// every bench JSON row (`dispatch`) and printed by the daemon at startup.
const char* ActivePathName();

/// Comma-separated feature list the runtime detected on this host
/// ("sse4.2,avx,avx2" / "portable" off x86) — bench artifact metadata, so
/// tools/bench_diff can warn before comparing numbers from different
/// silicon.
std::string CpuFeatureString();

/// Software prefetch hints for the engines' pointer-chasing loops. No-ops
/// where the builtin is unavailable; never required for correctness. `p`
/// may point anywhere, including out of bounds — prefetch instructions do
/// not fault.
inline void PrefetchRead(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

inline void PrefetchWrite(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/1, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace simd
}  // namespace mrl

#endif  // MRLQUANT_UTIL_SIMD_H_
