// TSan-targeted stress test for the registry's locking scheme
// (src/server/registry.h): LRU eviction racing concurrent STATS / QUERY /
// ADD_BATCH / DELETE on the *same* tenant names. The dangerous
// interleaving is a reader holding a shared_ptr<Tenant> across an eviction
// of that tenant: the sketch must live until the last reference goes, and
// every sketch access must go through the tenant's own lock. Run under
// -fsanitize=thread (the CI tsan lane) this test turns any violation of
// the documented lock rule (Tenant::mu never taken under the directory
// lock) into a hard failure; under plain builds it still exercises the
// shared_ptr lifetime rules.
//
// Assertions here are deliberately weak (no answer-value checks): racing a
// DELETE or eviction legitimately yields NotFound, and an operation that
// caught the outgoing instance legitimately succeeds. What must hold is
// memory safety and statuses from the documented set.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "server/registry.h"
#include "util/random.h"

namespace mrl {
namespace server {
namespace {

std::vector<Value> UniformStream(std::size_t n, std::uint64_t seed) {
  Random rng(seed);
  std::vector<Value> values(n);
  for (Value& v : values) v = rng.UniformDouble();
  return values;
}

// Tenant name from a small pool, so threads collide on the same names and
// creates constantly push the registry past max_tenants. (Built char by
// char: `"t" + std::to_string(i)` trips GCC 12's -Wrestrict false
// positive.)
std::string TenantName(std::uint64_t i) {
  std::string name(1, 't');
  name.push_back(static_cast<char>('0' + (i % 6)));
  return name;
}

TEST(RegistryRaceTest, EvictionRacesReadsOnSameTenants) {
  RegistryOptions options;
  options.max_tenants = 3;  // far fewer than the name pool: constant churn
  SketchRegistry registry(options);

  TenantConfig config;
  config.eps = 0.05;  // small sketches keep per-op cost low

  constexpr int kThreads = 8;
  constexpr std::uint64_t kOpsPerThread = 400;
  const std::vector<Value> batch = UniformStream(256, /*seed=*/7);

  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {
      }
      Random rng(static_cast<std::uint64_t>(t) + 1);
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        const std::string name = TenantName(rng.UniformUint64(6));
        switch (rng.UniformUint64(5)) {
          case 0: {
            // Creating past max_tenants evicts the LRU tenant while other
            // threads may hold shared_ptr handles to it.
            const Status s = registry.Create(name, config);
            EXPECT_TRUE(s.ok() || s.code() == StatusCode::kFailedPrecondition)
                << s.message();
            break;
          }
          case 1: {
            const Result<std::uint64_t> count =
                registry.AddBatch(name, batch);
            EXPECT_TRUE(count.ok() ||
                        count.status().code() == StatusCode::kNotFound)
                << count.status().message();
            break;
          }
          case 2: {
            const Result<Value> q = registry.Query(name, 0.5);
            EXPECT_TRUE(q.ok() ||
                        q.status().code() == StatusCode::kNotFound ||
                        q.status().code() == StatusCode::kFailedPrecondition)
                << q.status().message();
            break;
          }
          case 3: {
            // Stats shared-locks the tenant the same way QUERY does; a
            // vanished tenant reports present == false.
            const TenantStats stats = registry.Stats(name);
            if (stats.present) {
              EXPECT_LE(stats.memory_elements, 1u << 24);
            }
            // Eviction runs under the same exclusive hold as the create
            // it makes room for, so the cap holds at every instant.
            EXPECT_LE(registry.size(), options.max_tenants);
            break;
          }
          case 4: {
            const Status s = registry.Delete(name);
            EXPECT_TRUE(s.ok() || s.code() == StatusCode::kNotFound)
                << s.message();
            break;
          }
        }
      }
    });
  }

  start.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  // The registry must still be coherent: directory bounded by the cap,
  // aggregate stats readable, and a fresh tenant fully usable.
  const RegistryStats global = registry.GlobalStats();
  EXPECT_LE(global.num_tenants, options.max_tenants);

  ASSERT_TRUE(registry.Create("post", config).ok());
  ASSERT_TRUE(registry.AddBatch("post", batch).ok());
  EXPECT_TRUE(registry.Query("post", 0.5).ok());
}

}  // namespace
}  // namespace server
}  // namespace mrl
