#include "daemon_main.h"

#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mrl {
namespace cli {

namespace {

int g_signal_pipe[2] = {-1, -1};

void HandleSignal(int) {
  const char byte = 1;
  // write(2) is async-signal-safe; a full pipe just means a wakeup is
  // already pending.
  [[maybe_unused]] const ssize_t w = write(g_signal_pipe[1], &byte, 1);
}

}  // namespace

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

bool ParseIntFlag(const char* arg, const char* name, long lo, long hi,
                  long* out) {
  std::string text;
  if (!ParseFlag(arg, name, &text)) return false;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "%s: bad integer for %s: %s\n",
                 program_invocation_short_name, name, text.c_str());
    std::exit(2);
  }
  if (v < lo || v > hi) {
    std::fprintf(stderr, "%s: %s must be in [%ld, %ld], got %ld\n",
                 program_invocation_short_name, name, lo, hi, v);
    std::exit(2);
  }
  *out = v;
  return true;
}

bool WaitForStopSignal() {
  if (pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "%s: pipe: %s\n", program_invocation_short_name,
                 std::strerror(errno));
    return false;
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  char byte;
  while (read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  return true;
}

}  // namespace cli
}  // namespace mrl
