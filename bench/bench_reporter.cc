#include "bench_reporter.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/simd.h"

namespace mrl {
namespace bench {

namespace {

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // names are ASCII
    out.push_back(c);
  }
  return out;
}

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void AppendField(std::string* json, const char* key, const std::string& value,
                 bool quoted) {
  *json += ", \"";
  *json += key;
  *json += quoted ? "\": \"" : "\": ";
  *json += value;
  if (quoted) *json += '"';
}

}  // namespace

std::string FormatG(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string BenchReporter::OutputPath() {
  const char* env = std::getenv("MRLQUANT_BENCH_JSON");
  return env != nullptr ? env : "";
}

BenchReporter::BenchReporter(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

BenchReporter::~BenchReporter() { Flush(); }

void BenchReporter::Report(BenchRecord record) {
  records_.push_back(std::move(record));
}

void BenchReporter::ReportValue(std::string name, double value,
                                std::string unit) {
  BenchRecord record;
  record.name = std::move(name);
  record.value = value;
  record.unit = std::move(unit);
  records_.push_back(std::move(record));
}

void BenchReporter::Flush() {
  const std::string path = OutputPath();
  if (path.empty()) {
    records_.clear();
    return;
  }
  if (records_.empty()) return;

  // Stamped on every row: which kernel produced these numbers ("scalar",
  // the one portable kernel) and on what silicon. bench_diff warns before
  // comparing rows whose stamp or feature set differ, such as
  // BENCH_PR9.json's "avx2" rows.
  const std::string dispatch = simd::ActivePathName();
  const std::string cpu = simd::CpuFeatureString();

  std::string entries;
  for (const BenchRecord& r : records_) {
    if (!entries.empty()) entries += ",\n";
    entries += "  {\"bench\": \"" + EscapeJson(bench_name_) +
               "\", \"name\": \"" + EscapeJson(r.name) + "\"";
    AppendField(&entries, "dispatch", EscapeJson(dispatch), true);
    AppendField(&entries, "cpu_features", EscapeJson(cpu), true);
    if (r.ns_per_op > 0) {
      AppendField(&entries, "ns_per_op", FormatDouble(r.ns_per_op), false);
    }
    if (r.elements_per_s > 0) {
      AppendField(&entries, "elements_per_s", FormatDouble(r.elements_per_s),
                  false);
    }
    if (r.mem_elements > 0) {
      AppendField(&entries, "mem_elements", FormatDouble(r.mem_elements),
                  false);
    }
    if (r.iterations > 0) {
      AppendField(&entries, "iterations",
                  std::to_string(r.iterations), false);
    }
    if (!r.unit.empty()) {
      AppendField(&entries, "value", FormatDouble(r.value), false);
      AppendField(&entries, "unit", EscapeJson(r.unit), true);
    }
    entries += "}";
  }
  records_.clear();

  std::string existing;
  {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      existing = ss.str();
    }
  }
  // Splice before the closing bracket of an existing array; start a fresh
  // array otherwise (missing, empty, or malformed file).
  const std::size_t close = existing.find_last_of(']');
  std::string out;
  if (close != std::string::npos &&
      existing.find_first_of('[') != std::string::npos) {
    out = existing.substr(0, close);
    while (!out.empty() &&
           (out.back() == '\n' || out.back() == ' ' || out.back() == '\r')) {
      out.pop_back();
    }
    if (out.back() != '[') out += ",";
    out += "\n" + entries + "\n]\n";
  } else {
    out = "[\n" + entries + "\n]\n";
  }
  std::ofstream of(path, std::ios::binary | std::ios::trunc);
  of << out;
}

}  // namespace bench
}  // namespace mrl
