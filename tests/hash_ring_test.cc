// Consistent-hash ring placement properties (router/hash_ring.h).

#include "router/hash_ring.h"

#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace mrl {
namespace router {
namespace {

std::vector<std::string> Fleet(int n) {
  std::vector<std::string> backends;
  for (int i = 0; i < n; ++i) {
    backends.push_back("unix:/tmp/backend" + std::to_string(i) + ".sock");
  }
  return backends;
}

std::string TenantName(int i) { return "tenant-" + std::to_string(i); }

TEST(HashRingTest, DeterministicPlacement) {
  const HashRing a(Fleet(5));
  const HashRing b(Fleet(5));
  for (int i = 0; i < 1000; ++i) {
    const std::string name = TenantName(i);
    EXPECT_EQ(a.OwnerOf(name), b.OwnerOf(name));
    EXPECT_EQ(a.ReplicaOf(name), b.ReplicaOf(name));
  }
}

// Placement pinned to fixed values: a change to the hash or the ring walk
// would silently move tenants between backends, so it must show up here.
TEST(HashRingTest, PinnedPlacement) {
  const HashRing ring(Fleet(4));
  const auto expect = [&ring](const char* name, int owner, int replica) {
    EXPECT_EQ(ring.OwnerOf(name), owner) << name;
    EXPECT_EQ(ring.ReplicaOf(name), replica) << name;
  };
  expect("tenant-0", 3, 1);
  expect("tenant-2", 3, 0);
  expect("tenant-4", 1, 0);
  expect("tenant-5", 0, 1);
  expect("tenant-8", 0, 2);
  expect("tenant-9", 0, 3);
  expect("tenant-11", 2, 3);
  expect("tenant-13", 2, 1);
  expect("tenant-15", 1, 2);
  expect("a", 3, 2);
  expect("cpu.p99", 0, 1);
  expect("orders-eu-west", 1, 2);
  EXPECT_EQ(HashRing::Hash(""), 0xefd01f60ba992926ULL);
  EXPECT_EQ(HashRing::Hash("tenant-0"), 0x272134b843c176a7ULL);
}

TEST(HashRingTest, OwnersCoverTheFleetRoughlyEvenly) {
  constexpr int kBackends = 4;
  constexpr int kTenants = 10000;
  const HashRing ring(Fleet(kBackends));
  std::map<int, int> owners;
  for (int i = 0; i < kTenants; ++i) {
    const int owner = ring.OwnerOf(TenantName(i));
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, kBackends);
    ++owners[owner];
  }
  // Every backend owns a meaningful share. With 64 vnodes the spread is
  // loose (a backend can land near 5% of the keyspace) but no backend
  // should be starved or dominant.
  for (int b = 0; b < kBackends; ++b) {
    EXPECT_GT(owners[b], kTenants / (kBackends * 8)) << "backend " << b;
    EXPECT_LT(owners[b], kTenants / 2) << "backend " << b;
  }
}

TEST(HashRingTest, MinimalDisruptionOnBackendRemoval) {
  constexpr int kTenants = 5000;
  const HashRing before(Fleet(5));
  // Remove the last backend; survivors keep their indices in this fleet.
  const HashRing after(Fleet(4));
  int moved = 0;
  for (int i = 0; i < kTenants; ++i) {
    const std::string name = TenantName(i);
    const int old_owner = before.OwnerOf(name);
    const int new_owner = after.OwnerOf(name);
    if (old_owner != 4 && new_owner != old_owner) ++moved;
  }
  // Consistent hashing: tenants not owned by the removed backend should
  // essentially all stay put. Allow a sliver for vnode boundary shifts.
  EXPECT_LT(moved, kTenants / 20) << "non-evicted tenants moved";
}

TEST(HashRingTest, ReplicaIsDistinctFromOwner) {
  const HashRing ring(Fleet(3));
  for (int i = 0; i < 1000; ++i) {
    const std::string name = TenantName(i);
    const int owner = ring.OwnerOf(name);
    const int replica = ring.ReplicaOf(name);
    ASSERT_GE(replica, 0);
    EXPECT_NE(owner, replica) << name;
  }
}

TEST(HashRingTest, SingleBackendHasNoReplica) {
  const HashRing ring(Fleet(1));
  EXPECT_EQ(ring.OwnerOf("anything"), 0);
  EXPECT_EQ(ring.ReplicaOf("anything"), -1);
}

TEST(HashRingTest, Accessors) {
  const HashRing ring(Fleet(2));
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.backend(0), "unix:/tmp/backend0.sock");
  const int owner = ring.OwnerOf("x");
  EXPECT_TRUE(owner == 0 || owner == 1);
}

}  // namespace
}  // namespace router
}  // namespace mrl
