#ifndef MRLQUANT_PERFBENCH_STATS_H_
#define MRLQUANT_PERFBENCH_STATS_H_

// The benchmark's own arithmetic, kept free of the mrlquant libraries so
// perfbench/selftest.cc can check it on known inputs: percentile selection
// under the minimum-sample rule, span self time, transport residual, and
// the tie-aware rank error of an answer against the generated stream.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace perfbench {

/// Samples a run must hold before its q-quantile is reported: at least ten
/// samples must lie beyond it, so p50 needs 20 and p99 needs 1,000.
inline std::size_t MinSamplesFor(double q) {
  return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

/// Nearest-rank q-quantile (the ceil(q*n)-th smallest sample), or nullopt
/// when there are fewer than MinSamplesFor(q) samples. Sorts a copy.
inline std::optional<double> Percentile(std::vector<double> samples,
                                        double q) {
  if (samples.empty() || samples.size() < MinSamplesFor(q)) {
    return std::nullopt;
  }
  const std::size_t n = samples.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Median with no sample minimum (mean of the middle pair for even n);
/// 0 for no samples.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + mid);
  return (lower + upper) / 2;
}

/// One traced interval. `parent` indexes the span that caused it (or
/// kNoParent); spans of one request share `request`. `units` is how many
/// frames or queries the span covered, for per-unit means.
struct Span {
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  std::uint16_t name = 0;
  std::uint16_t units = 1;
  std::uint32_t parent = kNoParent;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of `parent`: its duration minus the time of `children` (the
/// spans whose parent it is). Children that lie inside the parent's
/// interval are subtracted by the part of the interval they cover
/// (overlapping children count once). A child recorded outside the interval
/// stands for work the parent does internally but that was timed on its own
/// (the standalone CRC inside encode and frame decode); its whole duration
/// is subtracted. Never negative.
inline std::int64_t SelfTimeNs(const Span& parent,
                               std::span<const Span> children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> inside;
  std::int64_t detached = 0;
  for (const Span& s : children) {
    if (s.start_ns >= parent.start_ns && s.end_ns <= parent.end_ns) {
      inside.emplace_back(s.start_ns, s.end_ns);
    } else {
      detached += s.duration_ns();
    }
  }
  std::sort(inside.begin(), inside.end());
  std::int64_t covered = 0;
  std::int64_t reach = parent.start_ns;
  for (const auto& [start, end] : inside) {
    const std::int64_t from = std::max(start, reach);
    if (end > from) covered += end - from;
    reach = std::max(reach, end);
  }
  return std::max<std::int64_t>(0,
                                parent.duration_ns() - covered - detached);
}

/// Transport residual of one round trip: the socket span minus the in-process
/// replay of the same work (the layers that run inside that round trip).
/// Whatever is left is syscalls, wakeups, copies and queueing.
inline double ResidualUs(double socket_us, std::span<const double> layer_us) {
  double in_process = 0;
  for (double us : layer_us) in_process += us;
  return socket_us - in_process;
}

/// Distance from phi to the normalized rank interval [less/n, less_equal/n]
/// of an answer: `less` stream values are strictly smaller than it and
/// `less_equal` are no larger. Any position inside a run of ties is a valid
/// rank, so an answer inside the interval has error 0.
inline double RankIntervalError(std::uint64_t less, std::uint64_t less_equal,
                                std::uint64_t n, double phi) {
  if (n == 0) return 0;
  const double lo = static_cast<double>(less) / static_cast<double>(n);
  const double hi = static_cast<double>(less_equal) / static_cast<double>(n);
  if (phi < lo) return lo - phi;
  if (phi > hi) return phi - hi;
  return 0;
}

/// Exact ranks of a stream built by sending frames from a fixed pool, each
/// any number of times: the stream is the multiset sum of count[f] copies of
/// frame f, so ranks come from per-frame sorted copies without storing the
/// stream. Holds one count vector per tenant.
class PoolOracle {
 public:
  PoolOracle(const std::vector<std::vector<double>>& frames,
             std::size_t num_tenants)
      : sorted_(frames),
        counts_(num_tenants, std::vector<std::uint64_t>(frames.size(), 0)),
        totals_(num_tenants, 0) {
    for (auto& frame : sorted_) std::sort(frame.begin(), frame.end());
  }

  void Add(std::size_t tenant, std::size_t frame) {
    ++counts_[tenant][frame];
    totals_[tenant] += sorted_[frame].size();
  }

  /// Forgets every frame sent (a fresh set of daemons starts empty).
  void Clear() {
    for (auto& counts : counts_) std::fill(counts.begin(), counts.end(), 0);
    std::fill(totals_.begin(), totals_.end(), 0);
  }

  std::uint64_t total(std::size_t tenant) const { return totals_[tenant]; }

  /// Error of `answer` as the phi-quantile of `tenant`'s stream.
  double Error(std::size_t tenant, double answer, double phi) const {
    std::uint64_t less = 0;
    std::uint64_t less_equal = 0;
    for (std::size_t f = 0; f < sorted_.size(); ++f) {
      const std::uint64_t c = counts_[tenant][f];
      if (c == 0) continue;
      const auto& frame = sorted_[f];
      const auto lo = std::lower_bound(frame.begin(), frame.end(), answer);
      const auto hi = std::upper_bound(lo, frame.end(), answer);
      less += c * static_cast<std::uint64_t>(lo - frame.begin());
      less_equal += c * static_cast<std::uint64_t>(hi - frame.begin());
    }
    return RankIntervalError(less, less_equal, totals_[tenant], phi);
  }

 private:
  std::vector<std::vector<double>> sorted_;
  std::vector<std::vector<std::uint64_t>> counts_;
  std::vector<std::uint64_t> totals_;
};

}  // namespace perfbench

#endif  // MRLQUANT_PERFBENCH_STATS_H_
