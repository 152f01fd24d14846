#ifndef MRLQUANT_TOOLS_DAEMON_MAIN_H_
#define MRLQUANT_TOOLS_DAEMON_MAIN_H_

#include <string>

namespace mrl {
namespace cli {

/// Command-line helpers shared by mrlquantd, mrlquant_router and
/// mrlquant_client. Diagnostics are prefixed with the program's name.

/// Matches `--name=VALUE`: stores VALUE and returns true, or returns false
/// when `arg` is another flag.
bool ParseFlag(const char* arg, const char* name, std::string* out);

/// Matches an integer flag `--name=N` with N in [lo, hi]. A malformed or
/// out-of-range N is a usage error: prints why and exits with status 2.
bool ParseIntFlag(const char* arg, const char* name, long lo, long hi,
                  long* out);

/// Blocks until SIGINT or SIGTERM arrives: one blocking read of a
/// self-pipe the signal handler writes to, so the caller does zero periodic
/// wakeups while parked. Returns false (with a diagnostic) if the pipe
/// cannot be created.
bool WaitForStopSignal();

}  // namespace cli
}  // namespace mrl

#endif  // MRLQUANT_TOOLS_DAEMON_MAIN_H_
