#ifndef MRLQUANT_PERFBENCH_PROCS_H_
#define MRLQUANT_PERFBENCH_PROCS_H_

// Child processes of the benchmark: the shipped mrlquantd / mrlquant_router
// binaries, started as separate processes, waited for until they answer
// PING, and always stopped and reaped before the benchmark exits.

#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "util/status.h"

extern char** environ;

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Any condition that makes the run meaningless (a daemon that will not
/// start, a dropped connection). Caught in main, which then exits non-zero
/// without printing a result.
struct Fatal : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void Check(const mrl::Status& status, const std::string& what) {
  if (!status.ok()) throw Fatal(what + ": " + status.ToString());
}

template <typename T>
T Check(mrl::Result<T> result, const std::string& what) {
  if (!result.ok()) throw Fatal(what + ": " + result.status().ToString());
  return std::move(result).value();
}

/// Which CPUs each role runs on. Without pinning, the scheduler sometimes
/// stacks the generator and a daemon shard on one CPU and sometimes not,
/// and runs differ by that alone; pinned, every run gets the same layout.
/// Empty sets (fewer than 4 CPUs available) leave placement to the kernel.
struct Placement {
  std::vector<int> generator, router, daemons;

  /// The first `generator_cpus` CPUs drive load, the next one (when
  /// `router`) runs the router, and the daemons share the rest.
  static Placement Plan(int generator_cpus, bool router) {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
      }
    }
    Placement p;
    if (cpus.size() < 4) return p;
    std::size_t next = 0;
    for (int i = 0; i < generator_cpus; ++i) {
      p.generator.push_back(cpus[next++]);
    }
    if (router) p.router.push_back(cpus[next++]);
    p.daemons.assign(cpus.begin() + static_cast<long>(next), cpus.end());
    return p;
  }
};

/// Pins the calling thread (and what it spawns or creates afterwards) to
/// `cpus`; no-op for an empty list.
inline void PinTo(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  if (::sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw Fatal(std::string("sched_setaffinity: ") + std::strerror(errno));
  }
}

/// One child process, started on `cpus` (empty: anywhere). Its stdout goes
/// to the benchmark's stderr, so the benchmark's own stdout carries only its
/// result lines.
class Proc {
 public:
  Proc(const std::vector<std::string>& args, const std::vector<int>& cpus) {
    cpu_set_t saved;
    CPU_ZERO(&saved);
    ::sched_getaffinity(0, sizeof(saved), &saved);
    PinTo(cpus);  // inherited by the child

    std::vector<char*> argv;
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
    const int rc =
        posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::sched_setaffinity(0, sizeof(saved), &saved);
    if (rc != 0) {
      pid_ = -1;
      throw Fatal("cannot start " + args[0] + ": " + std::strerror(rc));
    }
  }
  ~Proc() { Stop(); }

  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;

  /// Peak resident set (VmHWM) in MB; 0 once the process is gone.
  double PeakRssMb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (status >> key) {
      if (key == "VmHWM:") {
        double kb = 0;
        status >> kb;
        return kb / 1024.0;
      }
    }
    return 0;
  }

  /// SIGTERM, then SIGKILL after 5 s; always reaps.
  void Stop() {
    if (pid_ < 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 500; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

/// Connects to a daemon or router socket, retrying until it answers PING
/// (15 s budget). Every later send/recv is bounded by 30 s, so a wedged
/// process fails the run instead of hanging it.
inline mrl::server::Client Connect(const std::string& socket_path) {
  const auto deadline = Clock::now() + std::chrono::seconds(15);
  while (true) {
    mrl::Result<mrl::server::Client> client =
        mrl::server::Client::ConnectUnix(socket_path, 200);
    if (client.ok() && client.value().Ping().ok()) {
      Check(client.value().SetIoTimeout(30000), "set io timeout");
      return std::move(client).value();
    }
    if (Clock::now() > deadline) throw Fatal("no answer on " + socket_path);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// The processes of one workload: daemons first, then any routers.
struct Topology {
  std::string base;                  ///< socket path prefix
  std::string bin_dir;               ///< where the shipped binaries live
  Placement placement;
  std::vector<std::string> daemons;  ///< daemon socket paths
  std::string front;                 ///< the socket the workload talks to
  std::vector<std::string> sockets;  ///< every socket, for cleanup
  std::vector<std::unique_ptr<Proc>> procs;

  Topology() = default;
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;
  ~Topology() {
    for (auto it = procs.rbegin(); it != procs.rend(); ++it) (*it)->Stop();
    for (const std::string& s : sockets) ::unlink(s.c_str());
  }

  void AddDaemon(int shards) {
    const std::string sock =
        base + ".d" + std::to_string(daemons.size()) + ".sock";
    ::unlink(sock.c_str());
    sockets.push_back(sock);
    daemons.push_back(sock);
    procs.push_back(std::make_unique<Proc>(std::vector<std::string>{
        bin_dir + "/mrlquantd", "--uds=" + sock,
        "--shards=" + std::to_string(shards), "--max-tenants=1024"},
        placement.daemons));
  }

  /// Starts a router over `backends` (daemon socket paths) and waits until
  /// it answers; returns its socket path.
  std::string AddRouter(const std::string& tag,
                        const std::vector<std::string>& backends,
                        const std::vector<std::string>& flags) {
    const std::string sock = base + "." + tag + ".sock";
    ::unlink(sock.c_str());
    sockets.push_back(sock);
    std::string list;
    for (const std::string& b : backends) {
      list += (list.empty() ? "unix:" : ",unix:") + b;
    }
    std::vector<std::string> args = {bin_dir + "/mrlquant_router",
                                     "--uds=" + sock, "--backends=" + list};
    args.insert(args.end(), flags.begin(), flags.end());
    procs.push_back(std::make_unique<Proc>(args, placement.router.empty()
                                                     ? placement.daemons
                                                     : placement.router));
    Connect(sock);
    return sock;
  }

  double PeakRssMb() const {
    double total = 0;
    for (const auto& p : procs) total += p->PeakRssMb();
    return total;
  }
};

}  // namespace perfbench

#endif  // MRLQUANT_PERFBENCH_PROCS_H_
