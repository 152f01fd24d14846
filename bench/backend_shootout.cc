// Backend shootout: every registry-instantiable sketch backend raced on
// the same stream under the same (eps, delta) budget, reporting the three
// axes that matter when picking a backend — space (MemoryBytes), update
// cost (ns per Add), and observed worst-case rank error against the exact
// sorted baseline. `mrl99_eqbytes` is the equal-memory control for
// `mrl99_sharded4`: one UnknownNSketch at the smallest eps whose footprint
// fits in the sharded sketch's bytes, which is what a single-writer tenant
// could spend instead of sharding. Rows land in the shared JSON perf artifact
// (BENCH_PR6.json in CI via MRLQUANT_BENCH_JSON) for trend tracking; the
// run is informational, not a gate.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_reporter.h"
#include "core/det_reservoir.h"
#include "core/estimator.h"
#include "core/kll.h"
#include "core/params.h"
#include "core/sharded.h"
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

std::unique_ptr<QuantileEstimator> MakeUnknownN(double eps) {
  mrl::UnknownNOptions options;
  options.eps = eps;
  options.delta = kDelta;
  options.seed = 2;
  return std::unique_ptr<QuantileEstimator>(new mrl::UnknownNSketch(
      std::move(mrl::UnknownNSketch::Create(options)).value()));
}

std::unique_ptr<QuantileEstimator> MakeSharded4() {
  mrl::ShardedQuantileSketch::Options options;
  options.eps = kEps;
  options.delta = kDelta;
  options.num_shards = 4;
  options.seed = 2;
  return std::unique_ptr<QuantileEstimator>(new mrl::ShardedQuantileSketch(
      std::move(mrl::ShardedQuantileSketch::Create(options)).value()));
}

/// Smallest eps on a 1e-5 grid up to kEps whose UnknownNSketch needs no
/// more bytes than `budget`.
double SmallestEpsWithin(std::uint64_t budget) {
  double best = kEps;
  for (long i = std::lround(kEps / 1e-5); i >= 1; --i) {
    const double eps = i * 1e-5;
    mrl::Result<std::uint64_t> elements =
        mrl::UnknownNMemoryElements(eps, kDelta);
    if (elements.ok() && elements.value() * sizeof(Value) <= budget) {
      best = eps;
    }
  }
  return best;
}

std::vector<Contender> Contenders(double eqbytes_eps) {
  std::vector<Contender> list;
  list.push_back({"mrl99", [] { return MakeUnknownN(kEps); }});
  list.push_back({"mrl99_sharded4", [] { return MakeSharded4(); }});
  list.push_back(
      {"mrl99_eqbytes", [eqbytes_eps] { return MakeUnknownN(eqbytes_eps); }});
  list.push_back({"kll", [] {
    mrl::KllOptions options;
    options.eps = kEps;
    options.delta = kDelta;
    options.seed = 2;
    return std::unique_ptr<QuantileEstimator>(new mrl::KllSketch(
        std::move(mrl::KllSketch::Create(options)).value()));
  }});
  list.push_back({"det_reservoir", [] {
    mrl::DetReservoirOptions options;
    options.eps = kEps;
    options.delta = kDelta;
    options.seed = 2;
    return std::unique_ptr<QuantileEstimator>(
        new mrl::DeterministicReservoirSketch(std::move(
            mrl::DeterministicReservoirSketch::Create(options)).value()));
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

  const double eqbytes_eps = SmallestEpsWithin(MakeSharded4()->MemoryBytes());
  reporter.ReportValue("mrl99_eqbytes/eps", eqbytes_eps, "eps");
  std::printf("Backend shootout: N=%zu uniform, eps=%g, delta=%g "
              "(mrl99_eqbytes: eps=%g)\n\n",
              kN, kEps, kDelta, eqbytes_eps);
  std::printf("%-16s %12s %12s %12s %12s\n", "backend", "update ns",
              "mem elems", "mem KiB", "worst err");
  std::printf("%s\n", std::string(68, '-').c_str());

  bool all_within_eps = true;
  for (const Contender& contender : Contenders(eqbytes_eps)) {
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
