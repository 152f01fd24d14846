// Fuzz harness for registry crash recovery: SketchRegistry::RecoverFromDisk
// over an arbitrary MRLR checkpoint file (docs/checkpoint_format.md,
// "Registry checkpoint").
//
// The checkpoint file is what a daemon trusts at startup, after a crash
// may have left it truncated or a bad disk may have flipped its bits. The
// contract under test: recovery NEVER aborts, reads out of bounds, or
// leaks — it either loads the registry or returns a Status. When it loads,
// the recovered registry is checkpointed again and that file is recovered
// into a fresh registry; that must succeed with the same tenant count and
// element total, or the harness traps.

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "server/registry.h"

namespace {

/// A per-process path under $TMPDIR (default /tmp).
std::string TempPath() {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir != nullptr && *dir != '\0' ? dir : "/tmp";
  path += "/registry_recover_fuzz.";
  path += std::to_string(::getpid());
  return path;
}

bool WriteInput(const std::string& path, const std::uint8_t* data,
                std::size_t size) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool written = size == 0 || std::fwrite(data, 1, size, f) == size;
  return std::fclose(f) == 0 && written;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using mrl::server::RegistryOptions;
  using mrl::server::RegistryStats;
  using mrl::server::SketchRegistry;
  // One file per process: it holds the input, and after a successful
  // recovery the re-encoded checkpoint (a registry persists to the one
  // path it recovers from).
  static const std::string path = TempPath();
  if (!WriteInput(path, data, size)) __builtin_trap();

  RegistryOptions options;
  options.checkpoint_path = path;
  SketchRegistry recovered(options);
  if (recovered.RecoverFromDisk().ok()) {
    const RegistryStats stats = recovered.GlobalStats();
    if (!recovered.CheckpointNow().ok()) __builtin_trap();
    SketchRegistry again(options);
    if (!again.RecoverFromDisk().ok() || again.size() != recovered.size() ||
        again.GlobalStats().total_count != stats.total_count) {
      __builtin_trap();
    }
  }
  std::remove(path.c_str());
  return 0;
}
