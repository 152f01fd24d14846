#ifndef MRLQUANT_ROUTER_HASH_RING_H_
#define MRLQUANT_ROUTER_HASH_RING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mrl {
namespace router {

/// Consistent-hash ring over a fixed backend set. Each backend contributes
/// 64 points ("addr#i" hashed with FNV-1a) on a 64-bit circle; a
/// tenant name hashes to a point and is owned by the first backend point at
/// or after it (wrapping). Adding or removing one backend therefore moves
/// only ~1/N of tenants — the property that makes rolling a backend in or
/// out of the fleet cheap.
///
/// The ring is immutable after construction, so lookups need no lock and
/// every router thread (and every test) sees the same placement.
class HashRing {
 public:
  /// `backends` are opaque labels (the router passes addresses); order
  /// determines each backend's index but not its ring position.
  explicit HashRing(std::vector<std::string> backends);

  /// Index of the backend owning `name`. Requires a non-empty ring.
  int OwnerOf(std::string_view name) const;

  /// Index of the replica for `name`: the next distinct backend clockwise
  /// from the owner. -1 when fewer than two backends exist.
  int ReplicaOf(std::string_view name) const;

  std::size_t size() const { return backends_.size(); }
  const std::string& backend(int index) const {
    return backends_[static_cast<std::size_t>(index)];
  }

  /// Stable placement hash: server::TenantNameHash (FNV-1a) followed by
  /// the murmur3 fmix64 finalizer.
  static std::uint64_t Hash(std::string_view s);

 private:
  struct Point {
    std::uint64_t hash;
    int backend;
    bool operator<(const Point& other) const { return hash < other.hash; }
  };

  /// First ring point at or after `h` (wrapping).
  const Point& PointFor(std::uint64_t h) const;

  std::vector<std::string> backends_;
  std::vector<Point> points_;  ///< sorted by hash
};

}  // namespace router
}  // namespace mrl

#endif  // MRLQUANT_ROUTER_HASH_RING_H_
