#include "router/hash_ring.h"

#include <algorithm>

#include "server/protocol.h"

namespace mrl {
namespace router {

std::uint64_t HashRing::Hash(std::string_view s) {
  std::uint64_t h = server::TenantNameHash(s);
  // Finalizer (murmur3 fmix64): raw FNV-1a clusters for keys that differ
  // only in a trailing counter — exactly what vnode labels look like — and
  // clustered points hand one backend a huge arc of the ring.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

HashRing::HashRing(std::vector<std::string> backends, int vnodes)
    : backends_(std::move(backends)) {
  if (vnodes < 1) vnodes = 1;
  points_.reserve(backends_.size() * static_cast<std::size_t>(vnodes));
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    for (int v = 0; v < vnodes; ++v) {
      std::string point = backends_[b];
      point.push_back('#');
      point += std::to_string(v);
      points_.push_back({Hash(point), static_cast<int>(b)});
    }
  }
  std::sort(points_.begin(), points_.end());
}

const HashRing::Point& HashRing::PointFor(std::uint64_t h) const {
  auto it = std::lower_bound(points_.begin(), points_.end(), Point{h, 0});
  if (it == points_.end()) it = points_.begin();  // wrap
  return *it;
}

int HashRing::OwnerOf(std::string_view name) const {
  return PointFor(Hash(name)).backend;
}

int HashRing::ReplicaOf(std::string_view name) const {
  if (backends_.size() < 2) return -1;
  const std::uint64_t h = Hash(name);
  auto it = std::lower_bound(points_.begin(), points_.end(), Point{h, 0});
  if (it == points_.end()) it = points_.begin();
  const int owner = it->backend;
  // Walk clockwise until a different backend's point shows up. Bounded by
  // the point count: with >= 2 backends some point belongs to another one.
  for (std::size_t steps = 0; steps < points_.size(); ++steps) {
    ++it;
    if (it == points_.end()) it = points_.begin();
    if (it->backend != owner) return it->backend;
  }
  return -1;
}

}  // namespace router
}  // namespace mrl
