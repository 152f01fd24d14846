// SketchRegistry unit tests: tenancy lifecycle, LRU eviction, re-created
// tenants starting fresh, and checkpoint/recover (src/server/registry.h).

#include "server/registry.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/known_n.h"
#include "core/unknown_n.h"
#include "gtest/gtest.h"
#include "util/random.h"
#include "util/serde.h"

namespace mrl {
namespace server {
namespace {

std::vector<Value> UniformStream(std::size_t n, std::uint64_t seed) {
  Random rng(seed);
  std::vector<Value> values(n);
  for (Value& v : values) v = rng.UniformDouble();
  return values;
}

/// Exact normalized rank of `answer` in `sorted`.
double RankOf(const std::vector<Value>& sorted, Value answer) {
  const auto it = std::upper_bound(sorted.begin(), sorted.end(), answer);
  return static_cast<double>(it - sorted.begin()) /
         static_cast<double>(sorted.size());
}

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir != nullptr ? dir : "/tmp";
  path += '/';
  path += name;
  path += '.';
  path += std::to_string(::getpid());
  return path;
}

std::vector<std::uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path,
               const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

TEST(RegistryTest, LifecycleAndErrors) {
  SketchRegistry registry(RegistryOptions{});
  TenantConfig config;

  EXPECT_EQ(registry.Create("bad name!", config).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(registry.Create("t", config).ok());
  EXPECT_EQ(registry.Create("t", config).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.size(), 1u);

  const std::vector<Value> values = {3.0, 1.0, 2.0};
  Result<std::uint64_t> count = registry.AddBatch("t", values);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value(), 3u);
  EXPECT_EQ(registry.AddBatch("ghost", values).status().code(),
            StatusCode::kNotFound);

  Result<Value> median = registry.Query("t", 0.5);
  ASSERT_TRUE(median.ok());
  EXPECT_EQ(median.value(), 2.0);
  EXPECT_EQ(registry.Query("ghost", 0.5).status().code(),
            StatusCode::kNotFound);

  std::vector<Value> answers;
  ASSERT_TRUE(registry.QueryMany("t", std::vector<double>{0.5, 1.0},
                                 &answers)
                  .ok());
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[1], 3.0);

  const TenantStats stats = registry.Stats("t");
  EXPECT_TRUE(stats.present);
  EXPECT_EQ(stats.count, 3u);
  EXPECT_FALSE(registry.Stats("ghost").present);

  ASSERT_TRUE(registry.Delete("t").ok());
  EXPECT_EQ(registry.Delete("t").code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.size(), 0u);
}

TEST(RegistryTest, LruEvictionAndRecycling) {
  RegistryOptions options;
  options.max_tenants = 3;
  SketchRegistry registry(options);
  TenantConfig config;

  ASSERT_TRUE(registry.Create("a", config).ok());
  ASSERT_TRUE(registry.Create("b", config).ok());
  ASSERT_TRUE(registry.Create("c", config).ok());

  // Touch a and c so b is the LRU entry.
  ASSERT_TRUE(registry.AddBatch("a", std::vector<Value>{1.0}).ok());
  ASSERT_TRUE(registry.AddBatch("c", std::vector<Value>{1.0}).ok());

  ASSERT_TRUE(registry.Create("d", config).ok());
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_FALSE(registry.Stats("b").present);
  EXPECT_TRUE(registry.Stats("a").present);
  EXPECT_TRUE(registry.Stats("c").present);
  EXPECT_TRUE(registry.Stats("d").present);

  const RegistryStats global = registry.GlobalStats();
  EXPECT_EQ(global.evictions, 1u);

  // A tenant created into an evicted slot, and a deleted tenant created
  // again, are byte-identical to the same tenant in a brand-new registry.
  const auto fresh_snapshot = [&](std::string_view name) {
    SketchRegistry fresh(options);
    std::vector<std::uint8_t> blob;
    EXPECT_TRUE(fresh.Create(name, config).ok());
    EXPECT_TRUE(fresh.Snapshot(name, &blob).ok());
    return blob;
  };
  std::vector<std::uint8_t> blob;
  ASSERT_TRUE(registry.Snapshot("d", &blob).ok());
  EXPECT_EQ(blob, fresh_snapshot("d"));
  ASSERT_TRUE(registry.AddBatch("d", UniformStream(5000, 3)).ok());
  ASSERT_TRUE(registry.Delete("d").ok());
  ASSERT_TRUE(registry.Create("d", config).ok());
  ASSERT_TRUE(registry.Snapshot("d", &blob).ok());
  EXPECT_EQ(blob, fresh_snapshot("d"));

  ASSERT_TRUE(registry.AddBatch("d", std::vector<Value>{5.0}).ok());
  Result<Value> answer = registry.Query("d", 1.0);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.value(), 5.0);
  EXPECT_EQ(registry.Stats("d").count, 1u);
}

// Many tenants in one registry: every operation stays per-tenant, and the
// global accounting aggregates over all of them.
TEST(RegistryTest, ManyTenantLifecycleAndGlobalStats) {
  SketchRegistry registry(RegistryOptions{});
  TenantConfig config;

  constexpr int kTenants = 32;
  for (int i = 0; i < kTenants; ++i) {
    const std::string name = "tenant" + std::to_string(i);
    ASSERT_TRUE(registry.Create(name, config).ok()) << name;
    ASSERT_TRUE(registry.AddBatch(name, std::vector<Value>{1.0, 2.0}).ok());
  }

  EXPECT_EQ(registry.size(), static_cast<std::size_t>(kTenants));
  EXPECT_EQ(registry.GlobalStats().total_count, 2u * kTenants);

  for (int i = 0; i < kTenants; i += 2) {
    ASSERT_TRUE(registry.Delete("tenant" + std::to_string(i)).ok());
  }
  EXPECT_EQ(registry.size(), static_cast<std::size_t>(kTenants) / 2);
  EXPECT_FALSE(registry.Stats("tenant0").present);
  EXPECT_TRUE(registry.Stats("tenant1").present);
  Result<Value> answer = registry.Query("tenant1", 1.0);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer.value(), 2.0);
}

// A checkpoint written under a larger cap recovers whole; the next create
// evicts the least recently used tenants until the new one fits the cap.
TEST(RegistryTest, RecoveredTenantsOverTheCapAreEvictedOnCreate) {
  const std::string path = TempPath("registry_ckpt_cap");
  TenantConfig config;
  {
    RegistryOptions options;
    options.checkpoint_path = path;
    SketchRegistry registry(options);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(registry.Create("t" + std::to_string(i), config).ok());
    }
    ASSERT_TRUE(registry.CheckpointNow().ok());
  }

  RegistryOptions options;
  options.checkpoint_path = path;
  options.max_tenants = 3;
  SketchRegistry recovered(options);
  ASSERT_TRUE(recovered.RecoverFromDisk().ok());
  EXPECT_EQ(recovered.size(), 5u);
  // Touch t0 and t1 so they are the most recently used.
  ASSERT_TRUE(recovered.AddBatch("t0", std::vector<Value>{1.0}).ok());
  ASSERT_TRUE(recovered.AddBatch("t1", std::vector<Value>{1.0}).ok());

  ASSERT_TRUE(recovered.Create("new", config).ok());
  EXPECT_EQ(recovered.size(), 3u);
  EXPECT_EQ(recovered.GlobalStats().evictions, 3u);
  EXPECT_TRUE(recovered.Stats("t0").present);
  EXPECT_TRUE(recovered.Stats("t1").present);
  EXPECT_TRUE(recovered.Stats("new").present);
  std::remove(path.c_str());
}

TEST(RegistryTest, CheckpointRecoverRoundTrip) {
  const std::string path = TempPath("registry_ckpt");
  const std::vector<Value> values = UniformStream(50000, 11);
  TenantConfig other_cfg;
  other_cfg.eps = 0.005;
  other_cfg.delta = 1e-3;
  other_cfg.seed = 42;

  RegistryStats before;
  {
    RegistryOptions options;
    options.checkpoint_path = path;
    SketchRegistry registry(options);
    ASSERT_TRUE(registry.Create("u", TenantConfig{}).ok());
    ASSERT_TRUE(registry.Create("k", other_cfg).ok());
    for (std::size_t i = 0; i < values.size(); i += 5000) {
      std::span<const Value> batch(values.data() + i, 5000);
      ASSERT_TRUE(registry.AddBatch("u", batch).ok());
      ASSERT_TRUE(registry.AddBatch("k", batch).ok());
    }
    ASSERT_TRUE(registry.CheckpointNow().ok());
    before = registry.GlobalStats();
  }

  RegistryOptions options;
  options.checkpoint_path = path;
  SketchRegistry recovered(options);
  ASSERT_TRUE(recovered.RecoverFromDisk().ok());
  EXPECT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered.GlobalStats().total_count, before.total_count);
  EXPECT_EQ(recovered.Stats("u").count, values.size());
  EXPECT_EQ(recovered.Stats("k").count, values.size());
  EXPECT_TRUE(recovered.Stats("u").config == TenantConfig{});
  EXPECT_TRUE(recovered.Stats("k").config == other_cfg);

  std::vector<Value> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (const char* tenant : {"u", "k"}) {
    Result<Value> answer = recovered.Query(tenant, 0.5);
    ASSERT_TRUE(answer.ok());
    EXPECT_NEAR(RankOf(sorted, answer.value()), 0.5, 0.01);
  }

  // Recovered tenants keep ingesting.
  ASSERT_TRUE(recovered.AddBatch("u", std::vector<Value>{0.5}).ok());
  EXPECT_EQ(recovered.Stats("u").count, values.size() + 1);

  std::remove(path.c_str());
}

// A checkpoint is a function of the registry's contents: two registries
// holding the same three tenants, reached by different create/delete
// histories (so their hash tables iterate in different orders), write
// byte-identical files.
TEST(RegistryTest, CheckpointBytesIgnoreTenantHistory) {
  const std::vector<Value> values = UniformStream(3000, 5);
  const auto checkpoint_of = [&](const char* file,
                                 const std::vector<std::string>& fillers,
                                 const std::vector<std::string>& order) {
    RegistryOptions options;
    options.checkpoint_path = TempPath(file);
    SketchRegistry registry(options);
    for (const std::string& name : fillers) {
      EXPECT_TRUE(registry.Create(name, TenantConfig{}).ok()) << name;
    }
    for (const std::string& name : order) {
      EXPECT_TRUE(registry.Create(name, TenantConfig{}).ok()) << name;
      EXPECT_TRUE(registry.AddBatch(name, values).ok()) << name;
    }
    for (const std::string& name : fillers) {
      EXPECT_TRUE(registry.Delete(name).ok()) << name;
    }
    EXPECT_EQ(registry.size(), 3u);
    EXPECT_TRUE(registry.CheckpointNow().ok());
    std::vector<std::uint8_t> bytes = ReadFile(options.checkpoint_path);
    std::remove(options.checkpoint_path.c_str());
    return bytes;
  };
  std::vector<std::string> fillers;
  for (int i = 0; i < 40; ++i) fillers.push_back("f" + std::to_string(i));
  const std::vector<std::uint8_t> plain =
      checkpoint_of("registry_ckpt_plain", {}, {"a", "b", "c"});
  const std::vector<std::uint8_t> churned =
      checkpoint_of("registry_ckpt_churned", fillers, {"c", "a", "b"});
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(plain, churned);
}

// Every truncation and every single-byte flip of an MRLR v3 file holding
// three tenants must fail recovery, and a failed recovery must leave the
// tenants already in the registry as they were.
TEST(RegistryTest, RecoverRejectsCorruptCheckpoint) {
  const std::string path = TempPath("registry_ckpt_corrupt");
  {
    RegistryOptions options;
    options.checkpoint_path = path;
    SketchRegistry registry(options);
    for (std::uint64_t seed : {1, 2, 3}) {
      TenantConfig config;
      config.eps = 0.1;
      config.seed = seed;
      const std::string name = "t" + std::to_string(seed);
      ASSERT_TRUE(registry.Create(name, config).ok());
      ASSERT_TRUE(registry.AddBatch(name, UniformStream(100, 5)).ok());
    }
    ASSERT_TRUE(registry.CheckpointNow().ok());
  }
  const std::vector<std::uint8_t> good = ReadFile(path);
  ASSERT_GT(good.size(), 5u);
  EXPECT_EQ(good[4], 3) << "MRLR version byte";

  RegistryOptions options;
  options.checkpoint_path = path;
  SketchRegistry registry(options);
  ASSERT_TRUE(registry.Create("keep", TenantConfig{}).ok());
  ASSERT_TRUE(registry.AddBatch("keep", std::vector<Value>{1, 2, 3}).ok());
  const auto expect_rejected = [&](const std::vector<std::uint8_t>& bytes,
                                   const std::string& what) {
    WriteFile(path, bytes);
    EXPECT_FALSE(registry.RecoverFromDisk().ok()) << what;
    EXPECT_EQ(registry.size(), 1u) << what;
    EXPECT_EQ(registry.Stats("keep").count, 3u) << what;
  };
  for (std::size_t len = 0; len < good.size(); ++len) {
    expect_rejected(std::vector<std::uint8_t>(good.begin(), good.begin() + len),
                    "truncated to " + std::to_string(len));
  }
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::vector<std::uint8_t> flipped = good;
    flipped[i] ^= 0xFF;
    expect_rejected(flipped, "byte " + std::to_string(i) + " flipped");
  }
  // A v2 file is rejected by its version even when its CRC is valid.
  std::vector<std::uint8_t> v2 = good;
  v2[4] = 2;
  StoreU32Le(v2.data() + v2.size() - 4, Crc32(v2.data(), v2.size() - 4));
  expect_rejected(v2, "version 2");
  // A v3 file written while kinds 2 (KLL) and 3 (deterministic reservoir)
  // were served may hold their records: recovery refuses the whole file,
  // naming the kind byte, rather than drop those tenants. After the header
  // (u32 magic, u8 version, u64 tenant count) come the first record's u16
  // name length, its name, and the config block's kind byte.
  std::vector<std::uint8_t> kind2 = good;
  const std::size_t kind_offset = 15 + LoadU16Le(good.data() + 13);
  ASSERT_EQ(kind2[kind_offset], 0);
  kind2[kind_offset] = 2;
  StoreU32Le(kind2.data() + kind2.size() - 4,
             Crc32(kind2.data(), kind2.size() - 4));
  expect_rejected(kind2, "retired kind 2");
  EXPECT_EQ(registry.RecoverFromDisk().message(), "unknown sketch kind 2");

  WriteFile(path, good);
  ASSERT_TRUE(registry.RecoverFromDisk().ok());
  EXPECT_EQ(registry.size(), 3u);
  std::remove(path.c_str());
}

// RESTORE is create-or-replace, but only once the blob has restored: a
// blob that fails to decode leaves the tenant it targets untouched.
TEST(RegistryTest, FailedInstallKeepsExistingTenant) {
  SketchRegistry registry(RegistryOptions{});
  ASSERT_TRUE(registry.Create("t", TenantConfig{}).ok());
  ASSERT_TRUE(registry.AddBatch("t", UniformStream(1000, 9)).ok());
  std::vector<std::uint8_t> before;
  ASSERT_TRUE(registry.Snapshot("t", &before).ok());

  TenantConfig other_config;
  other_config.eps = 0.05;
  other_config.seed = 3;
  ASSERT_TRUE(registry.Create("o", other_config).ok());
  ASSERT_TRUE(registry.AddBatch("o", UniformStream(1000, 10)).ok());
  std::vector<std::uint8_t> other_blob;
  ASSERT_TRUE(registry.Snapshot("o", &other_blob).ok());

  // A well-formed MRLQ checkpoint of another sketch kind (known-N, kind
  // byte 2), framed the way Snapshot frames one.
  KnownNOptions known_options;
  known_options.n = 1000;
  KnownNSketch known = std::move(KnownNSketch::Create(known_options)).value();
  known.AddAll(UniformStream(1000, 10));
  const std::vector<std::uint8_t> known_bytes = known.Serialize();
  std::vector<std::uint8_t> known_blob;
  BinaryWriter known_writer(&known_blob);
  known_writer.PutU32(static_cast<std::uint32_t>(known_bytes.size()));
  known_writer.PutBytes(known_bytes.data(), known_bytes.size());

  // Snapshot framing: u32 length, then the sketch blob (u32 magic, u8
  // version, ...); byte 8 is the sketch's version.
  std::vector<std::uint8_t> corrupt = before;
  corrupt[8] ^= 0xFF;
  const struct {
    const char* what;
    std::vector<std::uint8_t> blob;
  } cases[] = {
      {"corrupt", corrupt},
      {"truncated", std::vector<std::uint8_t>(before.begin(),
                                              before.begin() + 5)},
      {"wrong kind", known_blob},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(registry.Install("t", TenantConfig{}, c.blob).code(),
              StatusCode::kInvalidArgument)
        << c.what;
    EXPECT_EQ(registry.Stats("t").count, 1000u) << c.what;
    std::vector<std::uint8_t> after;
    ASSERT_TRUE(registry.Snapshot("t", &after).ok()) << c.what;
    EXPECT_EQ(after, before) << c.what;
  }

  // A good blob replaces the tenant, config included.
  ASSERT_TRUE(registry.Install("t", other_config, other_blob).ok());
  EXPECT_TRUE(registry.Stats("t").config == other_config);
  EXPECT_EQ(registry.size(), 2u);
  std::vector<std::uint8_t> replaced;
  ASSERT_TRUE(registry.Snapshot("t", &replaced).ok());
  EXPECT_EQ(replaced, other_blob);
}

TEST(RegistryTest, MissingCheckpointIsEmptyRegistry) {
  RegistryOptions options;
  options.checkpoint_path = TempPath("registry_ckpt_missing");
  SketchRegistry registry(options);
  EXPECT_TRUE(registry.RecoverFromDisk().ok());
  EXPECT_EQ(registry.size(), 0u);
}

TEST(RegistryTest, SnapshotBlobMatchesSketchSerialization) {
  SketchRegistry registry(RegistryOptions{});
  ASSERT_TRUE(registry.Create("t", TenantConfig{}).ok());
  ASSERT_TRUE(registry.AddBatch("t", UniformStream(10000, 3)).ok());

  std::vector<std::uint8_t> blob;
  ASSERT_TRUE(registry.Snapshot("t", &blob).ok());
  ASSERT_FALSE(blob.empty());

  // An unknown-N tenant snapshot is a u32 length + the sketch's own v2
  // checkpoint bytes; the embedded blob must deserialize standalone.
  ASSERT_GE(blob.size(), 4u);
  const std::uint32_t len = static_cast<std::uint32_t>(blob[0]) |
                            (static_cast<std::uint32_t>(blob[1]) << 8) |
                            (static_cast<std::uint32_t>(blob[2]) << 16) |
                            (static_cast<std::uint32_t>(blob[3]) << 24);
  ASSERT_EQ(blob.size(), 4u + len);
  const std::vector<std::uint8_t> sketch_bytes(blob.begin() + 4, blob.end());
  Result<UnknownNSketch> sketch = UnknownNSketch::Deserialize(sketch_bytes);
  ASSERT_TRUE(sketch.ok()) << sketch.status().ToString();
  EXPECT_EQ(sketch.value().count(), 10000u);
}

}  // namespace
}  // namespace server
}  // namespace mrl
