// Checks the benchmark's own arithmetic (perfbench/stats.h) on inputs whose
// answers are known by hand. perfbench/run.py runs it after every build and
// refuses to report when it fails.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  using perfbench::MinSamplesFor;
  using perfbench::Percentile;
  Expect(MinSamplesFor(0.5) == 20, "p50 needs 20 samples");
  Expect(MinSamplesFor(0.99) == 1000, "p99 needs 1000 samples");

  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Expect(!Percentile(hundred, 0.99).has_value(), "no p99 from 100 samples");
  Expect(Near(Percentile(hundred, 0.5).value(), 50), "nearest-rank p50");
  Expect(!Percentile(std::vector<double>(19, 1.0), 0.5).has_value(),
         "no p50 from 19 samples");

  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  Expect(Near(Percentile(thousand, 0.99).value(), 990), "p99 of 1..1000");
  thousand.pop_back();
  Expect(!Percentile(thousand, 0.99).has_value(), "no p99 from 999 samples");

  Expect(Near(perfbench::Median({3, 1, 2}), 2), "odd median");
  Expect(Near(perfbench::Median({4, 1, 3, 2}), 2.5), "even median");
}

void TestSelfTime() {
  using perfbench::Span;
  // root [0,100) with children [10,30) and [20,50) (overlapping: cover
  // 40) and a grandchild inside the first child that must not count for
  // the root.
  const Span root = {0, 1, Span::kNoParent, 7, 0, 100};
  const Span first = {1, 1, 0, 7, 10, 30};
  const Span second = {2, 1, 0, 7, 20, 50};
  const Span leaf = {3, 1, 1, 7, 12, 18};
  const std::vector<Span> root_children = {first, second};
  const std::vector<Span> first_children = {leaf};
  Expect(perfbench::SelfTimeNs(root, root_children) == 60, "root self time");
  Expect(perfbench::SelfTimeNs(first, first_children) == 14,
         "child self time");
  Expect(perfbench::SelfTimeNs(leaf, {}) == 6, "leaf self time");

  // A detached child (timed on its own, after the parent) is subtracted by
  // its whole duration: encode [0,50) with a standalone crc [60,90).
  const Span encode = {0, 1, Span::kNoParent, 1, 0, 50};
  std::vector<Span> crc = {{1, 1, 0, 1, 60, 90}};
  Expect(perfbench::SelfTimeNs(encode, crc) == 20, "detached child");
  crc[0].end_ns = 200;
  Expect(perfbench::SelfTimeNs(encode, crc) == 0, "self time clamps at 0");
}

void TestResidual() {
  const std::vector<double> layers = {120.5, 30.0, 9.5};
  Expect(Near(perfbench::ResidualUs(200, layers), 40), "residual");
  Expect(Near(perfbench::ResidualUs(150, layers), -10),
         "residual keeps its sign");
}

void TestRankError() {
  using perfbench::RankIntervalError;
  // Stream 1,2,2,2,3 (n=5): answer 2 has less=1, less_equal=4, so every phi
  // in [0.2, 0.8] is exact.
  Expect(Near(RankIntervalError(1, 4, 5, 0.5), 0), "inside tie run");
  Expect(Near(RankIntervalError(1, 4, 5, 0.2), 0), "tie run lower edge");
  Expect(Near(RankIntervalError(1, 4, 5, 0.9), 0.1), "above tie run");
  Expect(Near(RankIntervalError(1, 4, 5, 0.1), 0.1), "below tie run");

  // The same stream sent as two pool frames, {2,3} twice and {1,2} once:
  // 2,3,2,3,1,2 -> sorted 1,2,2,2,3,3 (n=6).
  perfbench::PoolOracle oracle({{3, 2}, {2, 1}}, 2);
  oracle.Add(0, 0);
  oracle.Add(0, 0);
  oracle.Add(0, 1);
  Expect(oracle.total(0) == 6, "oracle count");
  Expect(Near(oracle.Error(0, 2, 0.5), 0), "oracle tie interval");
  Expect(Near(oracle.Error(0, 3, 0.5), 4.0 / 6 - 0.5), "oracle miss");
  Expect(Near(oracle.Error(0, 1, 0.0), 0), "oracle minimum");
  Expect(oracle.total(1) == 0 && Near(oracle.Error(1, 2, 0.5), 0),
         "other tenant empty");
}

}  // namespace

int main() {
  TestPercentiles();
  TestSelfTime();
  TestResidual();
  TestRankError();
  if (g_failures != 0) return 1;
  std::fprintf(stderr, "perfbench selftest: ok\n");
  return 0;
}
