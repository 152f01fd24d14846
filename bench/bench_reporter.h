#ifndef MRLQUANT_BENCH_BENCH_REPORTER_H_
#define MRLQUANT_BENCH_BENCH_REPORTER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace mrl {
namespace bench {

/// One benchmark result row, mirrored into the shared JSON perf artifact
/// named by the MRLQUANT_BENCH_JSON env var (no artifact when it is unset
/// or empty). Fields that do not apply stay zero/empty and are omitted from the
/// JSON: google-benchmark rows fill ns_per_op / elements_per_s /
/// mem_elements; table-reproduction rows report their headline number via
/// value + unit. Every row additionally carries the kernel stamp
/// `dispatch` (always "scalar" now that every host runs the one portable
/// kernel, util/simd.h; older artifacts may read "avx2" or
/// "forced-scalar") and the detected CPU feature set that produced it, so
/// tools/bench_diff can warn before comparing numbers from different
/// kernels or silicon.
struct BenchRecord {
  std::string name;            ///< row identifier, e.g. "BM_Select/10"
  double ns_per_op = 0;        ///< wall time per iteration
  double elements_per_s = 0;   ///< throughput (items_per_second)
  double mem_elements = 0;     ///< peak MemoryElements of the sketch(es)
  std::uint64_t iterations = 0;
  double value = 0;            ///< headline metric for table benches
  std::string unit;            ///< unit of `value`; empty when unused
};

/// Collects BenchRecords for one bench binary and appends them to the
/// shared JSON artifact on Flush (also called by the destructor). The file
/// is a single JSON array; successive bench binaries append to it, so one
/// CI lane running the whole suite produces one machine-readable
/// trajectory. Not thread-safe; benches report from their main thread.
class BenchReporter {
 public:
  /// `bench_name` tags every record with the producing binary.
  explicit BenchReporter(std::string bench_name);
  ~BenchReporter();

  BenchReporter(const BenchReporter&) = delete;
  BenchReporter& operator=(const BenchReporter&) = delete;

  void Report(BenchRecord record);

  /// Convenience for table benches: one headline metric row.
  void ReportValue(std::string name, double value, std::string unit);

  /// Appends all pending records to OutputPath() and clears them. Creates
  /// the file (as `[...]`) when missing; otherwise splices before the
  /// closing bracket. With no OutputPath() it only drops the records.
  void Flush();

  /// Resolved JSON artifact path: $MRLQUANT_BENCH_JSON, or empty (write
  /// nothing) when it is unset.
  static std::string OutputPath();

 private:
  std::string bench_name_;
  std::vector<BenchRecord> records_;
};

/// "%g"-formatted double for building record names ("0.01", "1e-05").
std::string FormatG(double v);

/// Drop-in replacement for BENCHMARK_MAIN() that mirrors every
/// google-benchmark run into a BenchReporter (console output unchanged).
/// Defined in bench_gbench_main.cc so table benches that only need
/// BenchReporter do not link google-benchmark.
int RunBenchmarksWithReporter(int argc, char** argv, const char* bench_name);

}  // namespace bench
}  // namespace mrl

#endif  // MRLQUANT_BENCH_BENCH_REPORTER_H_
