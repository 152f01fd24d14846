// mrlquantd: the multi-tenant quantile service daemon.
//
//   mrlquantd --uds=/tmp/mrlquant.sock
//             --checkpoint=/var/lib/mrlquant/registry.ckpt
//             --checkpoint-interval-ms=5000
//
// Serves the wire protocol of docs/wire_protocol.md over a Unix-domain
// socket, on N shared-nothing event-loop shards
// (--shards, default one per core). Runs until SIGINT/SIGTERM, then shuts
// down cleanly (checkpointing once more when --checkpoint-on-stop is
// given). The main thread parks on a self-pipe read (daemon_main.h) —
// like the event loops, it does zero periodic wakeups while idle (strace -c
// shows no poll/sleep churn at rest).

#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "daemon_main.h"
#include "server/server.h"
#include "util/simd.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --uds=PATH [--shards=N]\n"
      "          [--max-tenants=N] [--checkpoint=PATH]\n"
      "          [--checkpoint-interval-ms=N] [--checkpoint-on-stop]\n"
      "--uds is the Unix-domain socket to serve on.\n"
      "--shards sets the number of shared-nothing event-loop shards\n"
      "(default: one per core).\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using mrl::cli::ParseFlag;
  using mrl::cli::ParseIntFlag;
  mrl::server::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    long value = 0;
    if (ParseFlag(argv[i], "--uds", &options.uds_path)) continue;
    if (ParseIntFlag(argv[i], "--shards", 0, 256, &value)) {
      options.num_shards = static_cast<int>(value);
      continue;
    }
    if (ParseIntFlag(argv[i], "--max-tenants", 1, LONG_MAX, &value)) {
      options.registry.max_tenants = static_cast<std::size_t>(value);
      continue;
    }
    if (ParseFlag(argv[i], "--checkpoint", &options.registry.checkpoint_path))
      continue;
    if (ParseIntFlag(argv[i], "--checkpoint-interval-ms", 0, INT_MAX,
                     &value)) {
      options.checkpoint_interval_ms = static_cast<int>(value);
      continue;
    }
    if (std::strcmp(argv[i], "--checkpoint-on-stop") == 0) {
      options.checkpoint_on_stop = true;
      continue;
    }
    if (std::strcmp(argv[i], "--help") == 0) {
      Usage(argv[0]);
      return 0;
    }
    std::fprintf(stderr, "mrlquantd: unknown argument: %s\n", argv[i]);
    Usage(argv[0]);
    return 2;
  }

  auto server = mrl::server::QuantileServer::Create(std::move(options));
  if (!server.ok()) {
    std::fprintf(stderr, "mrlquantd: %s\n",
                 server.status().message().c_str());
    return 1;
  }

  std::fprintf(stderr,
               "mrlquantd: serving (pid %ld, %d shard%s, simd %s [%s]",
               static_cast<long>(getpid()), server.value()->num_shards(),
               server.value()->num_shards() == 1 ? "" : "s",
               mrl::simd::ActivePathName(),
               mrl::simd::CpuFeatureString().c_str());
  std::fprintf(stderr, ")\n");
  const bool parked = mrl::cli::WaitForStopSignal();
  std::fprintf(stderr, "mrlquantd: shutting down\n");
  server.value()->Stop();
  return parked ? 0 : 1;
}
