#ifndef MRLQUANT_ROUTER_HEALTH_H_
#define MRLQUANT_ROUTER_HEALTH_H_

#include <cstddef>
#include <vector>

#include "util/thread_annotations.h"

namespace mrl {
namespace router {

/// Shared scoreboard of backend liveness: a consecutive-failure counter per
/// backend. Two failures in a row mark a backend down (one bad RPC is not
/// an outage); any success resets it. Every RPC outcome — health-probe
/// pings and regular forwarded traffic alike — feeds the same tracker, so
/// a dead backend is usually noticed by the request that hits it, not only
/// by the next probe tick. Thread-safe.
class HealthTracker {
 public:
  explicit HealthTracker(std::size_t num_backends);

  void ReportSuccess(int backend);
  void ReportFailure(int backend);

  /// Whether the router should still send traffic to `backend`: anything
  /// not down is usable, including a backend never heard from.
  bool IsUsable(int backend) const;

 private:
  mutable Mutex mu_;
  std::vector<int> consecutive_failures_ MRLQUANT_GUARDED_BY(mu_);
};

}  // namespace router
}  // namespace mrl

#endif  // MRLQUANT_ROUTER_HEALTH_H_
