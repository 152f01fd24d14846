// mrlquantd: the multi-tenant quantile service daemon.
//
//   mrlquantd --uds=/tmp/mrlquant.sock
//             --checkpoint=/var/lib/mrlquant/registry.ckpt
//             --checkpoint-interval-ms=5000
//
// Serves the wire protocol of docs/wire_protocol.md over a Unix-domain
// socket and/or loopback TCP, on N shared-nothing event-loop shards
// (--shards, default one per core). Runs until SIGINT/SIGTERM, then shuts
// down cleanly (checkpointing once more when --checkpoint-on-stop is
// given). The main thread parks on a self-pipe read — like the event
// loops, it does zero periodic wakeups while idle (strace -c shows no
// poll/sleep churn at rest).

#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "server/server.h"
#include "util/simd.h"

namespace {

/// Self-pipe: the signal handler writes one byte; main blocks on read.
/// (An eventfd would do, but a pipe write is the canonical async-signal-
/// safe wakeup and needs no extra headers here.)
int g_signal_pipe[2] = {-1, -1};

void HandleSignal(int) {
  const char byte = 1;
  // write(2) is async-signal-safe; a full pipe just means a wakeup is
  // already pending.
  [[maybe_unused]] const ssize_t w = write(g_signal_pipe[1], &byte, 1);
}

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--uds=PATH] [--port=N] [--shards=N]\n"
      "          [--max-tenants=N] [--checkpoint=PATH]\n"
      "          [--checkpoint-interval-ms=N] [--checkpoint-on-stop]\n"
      "At least one of --uds / --port is required.\n"
      "--shards sets the number of shared-nothing event-loop shards\n"
      "(default: one per core).\n",
      argv0);
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

bool ParseIntFlag(const char* arg, const char* name, long* out) {
  std::string text;
  if (!ParseFlag(arg, name, &text)) return false;
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    std::fprintf(stderr, "mrlquantd: bad integer for %s: %s\n", name,
                 text.c_str());
    std::exit(2);
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  mrl::server::ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    long value = 0;
    if (ParseFlag(argv[i], "--uds", &options.uds_path)) continue;
    if (ParseIntFlag(argv[i], "--port", &value)) {
      options.tcp_port = static_cast<std::uint16_t>(value);
      continue;
    }
    if (ParseIntFlag(argv[i], "--shards", &value)) {
      options.num_shards = static_cast<int>(value);
      continue;
    }
    if (ParseIntFlag(argv[i], "--max-tenants", &value)) {
      options.registry.max_tenants = static_cast<std::size_t>(value);
      continue;
    }
    if (ParseFlag(argv[i], "--checkpoint", &options.registry.checkpoint_path))
      continue;
    if (ParseIntFlag(argv[i], "--checkpoint-interval-ms", &value)) {
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

  if (pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "mrlquantd: pipe: %s\n", std::strerror(errno));
    return 1;
  }

  auto server = mrl::server::QuantileServer::Create(std::move(options));
  if (!server.ok()) {
    std::fprintf(stderr, "mrlquantd: %s\n",
                 server.status().message().c_str());
    return 1;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::fprintf(stderr,
               "mrlquantd: serving (pid %ld, %d shard%s, simd %s [%s])\n",
               static_cast<long>(getpid()), server.value()->num_shards(),
               server.value()->num_shards() == 1 ? "" : "s",
               mrl::simd::ActivePathName(),
               mrl::simd::CpuFeatureString().c_str());
  // Park until a signal arrives: one blocking read, zero periodic wakeups.
  char byte;
  while (read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::fprintf(stderr, "mrlquantd: shutting down\n");
  server.value()->Stop();
  return 0;
}
