// Backend shootout: every registry-instantiable sketch backend raced on
// the same stream under the same (eps, delta) budget, reporting the three
// axes that matter when picking a backend — space (MemoryBytes), update
// cost (ns per Add), and observed worst-case rank error against the exact
// sorted baseline. Rows land in the shared JSON perf artifact
// (BENCH_PR6.json in CI via MRLQUANT_BENCH_JSON) for trend tracking; the
// run is informational, not a gate.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_reporter.h"
#include "core/estimator.h"
#include "core/kll.h"
#include "core/unknown_n.h"
#include "stream/generator.h"

namespace {

using mrl::QuantileEstimator;
using mrl::Value;

constexpr double kEps = 0.01;
constexpr double kDelta = 1e-4;
constexpr std::size_t kN = 1'000'000;

struct Contender {
  const char* name;
  std::function<std::unique_ptr<QuantileEstimator>()> make;
};

std::vector<Contender> Contenders() {
  std::vector<Contender> list;
  list.push_back({"mrl99", [] {
    mrl::UnknownNOptions options;
    options.eps = kEps;
    options.delta = kDelta;
    options.seed = 2;
    return std::unique_ptr<QuantileEstimator>(new mrl::UnknownNSketch(
        std::move(mrl::UnknownNSketch::Create(options)).value()));
  }});
  list.push_back({"kll", [] {
    mrl::KllOptions options;
    options.eps = kEps;
    options.delta = kDelta;
    options.seed = 2;
    return std::unique_ptr<QuantileEstimator>(new mrl::KllSketch(
        std::move(mrl::KllSketch::Create(options)).value()));
  }});
  return list;
}

double WorstError(const mrl::Dataset& ds, const QuantileEstimator& sketch) {
  double worst = 0;
  for (double phi : {0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    worst = std::max(worst,
                     ds.QuantileError(sketch.Query(phi).value(), phi));
  }
  return worst;
}

}  // namespace

int main() {
  mrl::bench::BenchReporter reporter("backend_shootout");

  mrl::StreamSpec spec;
  spec.n = kN;
  spec.seed = 7;
  const mrl::Dataset ds = mrl::GenerateStream(spec);

  std::printf("Backend shootout: N=%zu uniform, eps=%g, delta=%g\n\n", kN,
              kEps, kDelta);
  std::printf("%-16s %12s %12s %12s %12s\n", "backend", "update ns",
              "mem elems", "mem KiB", "worst err");
  std::printf("%s\n", std::string(68, '-').c_str());

  bool all_within_eps = true;
  for (const Contender& contender : Contenders()) {
    std::unique_ptr<QuantileEstimator> sketch = contender.make();

    const auto start = std::chrono::steady_clock::now();
    for (Value v : ds.values()) sketch->Add(v);
    const auto stop = std::chrono::steady_clock::now();
    const double ns_per_add =
        std::chrono::duration<double, std::nano>(stop - start).count() /
        static_cast<double>(kN);

    const double worst = WorstError(ds, *sketch);
    const double mem_elements =
        static_cast<double>(sketch->MemoryElements());
    const double mem_bytes = static_cast<double>(sketch->MemoryBytes());
    all_within_eps = all_within_eps && worst <= kEps;

    std::printf("%-16s %12.1f %12.0f %12.1f %12.5f\n", contender.name,
                ns_per_add, mem_elements, mem_bytes / 1024.0, worst);

    const std::string prefix = contender.name;
    reporter.ReportValue(prefix + "/update_ns", ns_per_add, "ns");
    reporter.ReportValue(prefix + "/mem_elements", mem_elements, "elements");
    reporter.ReportValue(prefix + "/mem_bytes", mem_bytes, "bytes");
    reporter.ReportValue(prefix + "/observed_err", worst, "rank");
  }

  std::printf("\nall backends within configured eps: %s\n",
              all_within_eps ? "yes" : "NO");
  return all_within_eps ? 0 : 1;
}
