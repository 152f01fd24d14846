#include "router/health.h"

namespace mrl {
namespace router {

namespace {

/// Consecutive failures that mark a backend down.
constexpr int kFailThreshold = 2;

}  // namespace

HealthTracker::HealthTracker(std::size_t num_backends)
    : consecutive_failures_(num_backends, 0) {}

void HealthTracker::ReportSuccess(int backend) {
  MutexLock lock(mu_);
  consecutive_failures_[static_cast<std::size_t>(backend)] = 0;
}

void HealthTracker::ReportFailure(int backend) {
  MutexLock lock(mu_);
  ++consecutive_failures_[static_cast<std::size_t>(backend)];
}

bool HealthTracker::IsUsable(int backend) const {
  MutexLock lock(mu_);
  return consecutive_failures_[static_cast<std::size_t>(backend)] <
         kFailThreshold;
}

}  // namespace router
}  // namespace mrl
