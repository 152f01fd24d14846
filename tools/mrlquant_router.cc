// mrlquant_router: stateless distributed front for mrlquantd backends.
//
//   mrlquant_router --uds=/tmp/router.sock
//                   --backends=unix:/tmp/b0.sock,unix:/tmp/b1.sock
//                   --replicate
//
// Speaks the same wire protocol as mrlquantd, so any client (including
// mrlquant_client) points at the router unchanged. Tenants are placed on
// backends with a consistent-hash ring; --replicate mirrors writes to a
// ring replica and fails over when the primary dies; --partition names
// tenants that are range-partitioned across ALL backends, with queries
// answered by a Section 6 fan-out merge of partial summaries. Runs until
// SIGINT/SIGTERM (self-pipe park, like mrlquantd).

#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "daemon_main.h"
#include "router/router.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --uds=PATH --backends=LIST [--replicate]\n"
      "          [--partition=NAME[,NAME...]]\n"
      "          [--health-interval-ms=N] [--rpc-timeout-ms=N]\n"
      "--uds (required) is the Unix-domain socket to serve on.\n"
      "--backends is a comma-separated list of mrlquantd addresses,\n"
      "each unix:PATH.\n"
      "--replicate mirrors each tenant's writes to a ring replica and\n"
      "fails over when the primary dies (needs >= 2 backends).\n"
      "--partition names tenants spread across ALL backends; their\n"
      "queries merge per-backend partial summaries (Section 6).\n",
      argv0);
}

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    if (comma > start) parts.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

}  // namespace

int main(int argc, char** argv) {
  using mrl::cli::ParseFlag;
  using mrl::cli::ParseIntFlag;
  mrl::router::RouterOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string text;
    long value = 0;
    if (ParseFlag(argv[i], "--uds", &options.uds_path)) continue;
    if (ParseFlag(argv[i], "--backends", &text)) {
      options.backends = SplitCommas(text);
      continue;
    }
    if (ParseFlag(argv[i], "--partition", &text)) {
      for (std::string& name : SplitCommas(text)) {
        options.partitioned.push_back(std::move(name));
      }
      continue;
    }
    if (std::strcmp(argv[i], "--replicate") == 0) {
      options.replicate = true;
      continue;
    }
    if (ParseIntFlag(argv[i], "--health-interval-ms", 0, INT_MAX, &value)) {
      options.health_interval_ms = static_cast<int>(value);
      continue;
    }
    if (ParseIntFlag(argv[i], "--rpc-timeout-ms", 0, INT_MAX, &value)) {
      options.rpc_timeout_ms = static_cast<int>(value);
      continue;
    }
    if (std::strcmp(argv[i], "--help") == 0) {
      Usage(argv[0]);
      return 0;
    }
    std::fprintf(stderr, "mrlquant_router: unknown argument: %s\n", argv[i]);
    Usage(argv[0]);
    return 2;
  }
  if (options.uds_path.empty()) {
    std::fprintf(stderr, "mrlquant_router: --uds=PATH is required\n");
    Usage(argv[0]);
    return 2;
  }

  const std::size_t num_backends = options.backends.size();
  const bool replicated = options.replicate;
  auto router = mrl::router::Router::Create(std::move(options));
  if (!router.ok()) {
    std::fprintf(stderr, "mrlquant_router: %s\n",
                 router.status().message().c_str());
    return 1;
  }

  std::fprintf(stderr,
               "mrlquant_router: serving (pid %ld, %zu backend%s%s",
               static_cast<long>(getpid()), num_backends,
               num_backends == 1 ? "" : "s",
               replicated ? ", replicated" : "");
  std::fprintf(stderr, ")\n");
  const bool parked = mrl::cli::WaitForStopSignal();
  std::fprintf(stderr, "mrlquant_router: shutting down\n");
  router.value()->Stop();
  return parked ? 0 : 1;
}
