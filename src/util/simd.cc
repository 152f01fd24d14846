#include "util/simd.h"

namespace mrl {
namespace simd {

const char* ActivePathName() { return "scalar"; }

std::string CpuFeatureString() {
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
  std::string features;
  const auto append = [&features](const char* name, bool present) {
    if (!present) return;
    if (!features.empty()) features += ',';
    features += name;
  };
  append("sse4.2", __builtin_cpu_supports("sse4.2") != 0);
  append("avx", __builtin_cpu_supports("avx") != 0);
  append("avx2", __builtin_cpu_supports("avx2") != 0);
  append("avx512f", __builtin_cpu_supports("avx512f") != 0);
  return features.empty() ? "pre-sse4.2" : features;
#else
  return "portable";
#endif
}

}  // namespace simd
}  // namespace mrl
