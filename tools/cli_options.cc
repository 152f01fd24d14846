#include "cli_options.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace mrl {
namespace cli {

namespace {

constexpr char kUsage[] =
    "usage: mrlquant_cli [--format=text|bin] [--eps=E] "
    "[--delta=D] [--phi=p1,p2,...] [--rank=v1,v2,...] "
    "[--seed=S] <file>";

/// The whole of `text` as a double: false on an empty token or any
/// trailing byte. Range checks are the sketch's.
bool ParseDouble(const char* text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

/// The whole of `text` as an unsigned decimal: digits only (no sign, no
/// space), and no overflow.
bool ParseU64(const char* text, std::uint64_t* out) {
  if (*text < '0' || *text > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

}  // namespace

bool ParseDoubleList(const char* arg, std::vector<double>* out) {
  out->clear();
  std::string s(arg);
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    std::string token = s.substr(pos, comma == std::string::npos
                                          ? std::string::npos
                                          : comma - pos);
    double v;
    if (!ParseDouble(token.c_str(), &v)) return false;
    out->push_back(v);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return !out->empty();
}

bool ParseArgs(int argc, char** argv, CliOptions* options,
               std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      std::size_t len = std::strlen(prefix);
      return std::strncmp(arg, prefix, len) == 0 ? arg + len : nullptr;
    };
    if (const char* v = value_of("--format=")) {
      options->format = v;
    } else if (const char* v = value_of("--eps=")) {
      if (!ParseDouble(v, &options->eps)) {
        *error = std::string("malformed --eps: ") + v;
        return false;
      }
    } else if (const char* v = value_of("--delta=")) {
      if (!ParseDouble(v, &options->delta)) {
        *error = std::string("malformed --delta: ") + v;
        return false;
      }
    } else if (const char* v = value_of("--seed=")) {
      if (!ParseU64(v, &options->seed)) {
        *error = std::string("malformed --seed (an unsigned integer): ") + v;
        return false;
      }
    } else if (const char* v = value_of("--phi=")) {
      if (!ParseDoubleList(v, &options->phis)) {
        *error = std::string("malformed --phi list: ") + v;
        return false;
      }
    } else if (const char* v = value_of("--rank=")) {
      if (!ParseDoubleList(v, &options->ranks)) {
        *error = std::string("malformed --rank list: ") + v;
        return false;
      }
    } else if (std::strncmp(arg, "--", 2) == 0) {
      *error = std::string("unknown flag: ") + arg;
      return false;
    } else if (options->path.empty()) {
      options->path = arg;
    } else {
      *error = std::string("unexpected argument: ") + arg;
      return false;
    }
  }
  if (options->path.empty()) {
    *error = kUsage;
    return false;
  }
  if (options->format != "text" && options->format != "bin") {
    *error = "unknown format: " + options->format;
    return false;
  }
  return true;
}

}  // namespace cli
}  // namespace mrl
