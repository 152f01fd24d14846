// Writes deterministic seed corpora for the two serving-tier harnesses:
//
// * into argv[1], for fuzz_protocol_decode: one well-formed frame of every
//   request type plus every response shape, built with the real encoders
//   so the fuzzer starts past the header/CRC checks and inside the request
//   decoders;
// * into argv[2], for registry_recover_fuzz: MRLR registry checkpoints
//   written by SketchRegistry::CheckpointNow — empty, one tenant, and
//   three tenants across two partitions.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "server/protocol.h"
#include "server/registry.h"

namespace {

bool WriteFile(const std::filesystem::path& dir, const std::string& name,
               const std::vector<std::uint8_t>& bytes) {
  std::filesystem::path path = dir / name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), bytes.size());
  return true;
}

// Writes dir/name as the checkpoint of a registry with `num_partitions`
// partitions holding `tenants`, tenant i fed (i + 1) * 1500 values.
bool WriteRegistry(const std::filesystem::path& dir, const std::string& name,
                   std::size_t num_partitions,
                   const std::vector<std::string>& tenants) {
  using namespace mrl::server;  // NOLINT(build/namespaces)
  RegistryOptions options;
  options.checkpoint_path = (dir / name).string();
  options.num_partitions = num_partitions;
  SketchRegistry registry(options);
  std::uint64_t x = 1;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    TenantConfig config;
    config.eps = 0.05;
    config.delta = 1e-3;
    config.seed = i + 1;
    std::vector<mrl::Value> values((i + 1) * 1500);
    for (mrl::Value& v : values) {
      // Fixed LCG: byte-identical seeds on every platform.
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      v = static_cast<double>(x >> 11) / 9007199254740992.0;
    }
    if (!registry.Create(tenants[i], config).ok() ||
        !registry.AddBatch(tenants[i], values).ok()) {
      std::fprintf(stderr, "cannot build tenant %s\n", tenants[i].c_str());
      return false;
    }
  }
  const mrl::Status status = registry.CheckpointNow();
  if (!status.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n",
                 options.checkpoint_path.c_str(), status.ToString().c_str());
    return false;
  }
  std::printf("wrote %s\n", options.checkpoint_path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mrl::server;  // NOLINT(build/namespaces)
  if (argc != 3) {
    std::fprintf(stderr,
                 "usage: make_protocol_corpus <protocol-dir> <registry-dir>\n");
    return 1;
  }
  std::filesystem::path dir(argv[1]);
  std::filesystem::path registry_dir(argv[2]);
  std::filesystem::create_directories(dir);
  std::filesystem::create_directories(registry_dir);
  bool ok = true;
  std::vector<std::uint8_t> wire;

  EncodeCreateSketch("t", TenantConfig{}, &wire);
  ok = WriteFile(dir, "create_default", wire) && ok;

  wire.clear();
  const std::vector<mrl::Value> values = {1.5, -2.25, 0.0, 1e300, -1e-300};
  EncodeAddBatch("tenant-a", values, &wire);
  ok = WriteFile(dir, "add_batch", wire) && ok;

  wire.clear();
  EncodeAddBatch("t", {}, &wire);
  ok = WriteFile(dir, "add_batch_empty", wire) && ok;

  wire.clear();
  EncodeQuery("tenant-a", 0.5, &wire);
  ok = WriteFile(dir, "query", wire) && ok;

  wire.clear();
  const std::vector<double> phis = {0.001, 0.25, 0.5, 0.99};
  EncodeQueryMulti("tenant-a", phis, &wire);
  ok = WriteFile(dir, "query_multi", wire) && ok;

  wire.clear();
  EncodeNameRequest(MsgType::kSnapshot, "tenant-a", &wire);
  ok = WriteFile(dir, "snapshot", wire) && ok;

  wire.clear();
  EncodeNameRequest(MsgType::kDelete, "tenant-a", &wire);
  ok = WriteFile(dir, "delete", wire) && ok;

  wire.clear();
  EncodeNameRequest(MsgType::kStats, "", &wire);
  ok = WriteFile(dir, "stats_global", wire) && ok;

  // Protocol v3, the router/backend ops.
  wire.clear();
  EncodePing(&wire);
  ok = WriteFile(dir, "ping", wire) && ok;

  wire.clear();
  EncodeNameRequest(MsgType::kFetchSummary, "tenant-a", &wire);
  ok = WriteFile(dir, "fetch_summary", wire) && ok;

  wire.clear();
  const std::vector<std::uint8_t> checkpoint = {0x4D, 0x52, 0x4C, 0x51, 0x02,
                                                0x00, 0x01, 0x02};
  TenantConfig restore_config;
  restore_config.eps = 0.005;
  restore_config.seed = 7;
  EncodeRestore("tenant-a", restore_config, checkpoint, &wire);
  ok = WriteFile(dir, "restore", wire) && ok;

  wire.clear();
  EncodeErrorResponse(MsgType::kQuery,
                      mrl::Status::NotFound("unknown tenant"), &wire);
  ok = WriteFile(dir, "response_error", wire) && ok;

  wire.clear();
  EncodeEmptyOk(MsgType::kCreateSketch, &wire);
  ok = WriteFile(dir, "response_empty_ok", wire) && ok;

  wire.clear();
  EncodeAddBatchOk(123456789, &wire);
  ok = WriteFile(dir, "response_add_batch", wire) && ok;

  wire.clear();
  EncodeQueryOk(3.25, &wire);
  ok = WriteFile(dir, "response_query", wire) && ok;

  wire.clear();
  EncodeQueryMultiOk(values, &wire);
  ok = WriteFile(dir, "response_query_multi", wire) && ok;

  wire.clear();
  const std::vector<std::uint8_t> blob = {0x4D, 0x52, 0x4C, 0x51, 0x02};
  EncodeBlobOk(MsgType::kSnapshot, blob, &wire);
  ok = WriteFile(dir, "response_snapshot", wire) && ok;

  wire.clear();
  StatsReply stats;
  stats.num_tenants = 2;
  stats.total_count = 1000000;
  stats.tenant_present = true;
  stats.tenant_count = 600000;
  stats.tenant_memory_elements = 4096;
  EncodeStatsOk(stats, &wire);
  ok = WriteFile(dir, "response_stats", wire) && ok;

  wire.clear();
  const std::vector<std::uint8_t> partial = {0x4D, 0x52, 0x4C, 0x50, 0x01};
  EncodeBlobOk(MsgType::kFetchSummary, partial, &wire);
  ok = WriteFile(dir, "response_fetch_summary", wire) && ok;

  // A two-frame stream exercises the framing advance in the harness.
  wire.clear();
  EncodeQuery("a", 0.25, &wire);
  EncodeNameRequest(MsgType::kDelete, "b", &wire);
  ok = WriteFile(dir, "two_frames", wire) && ok;

  ok = WriteRegistry(registry_dir, "empty", 1, {}) && ok;
  ok = WriteRegistry(registry_dir, "one_tenant", 1, {"latency"}) && ok;
  // Tenants "a" and "c" hash to partition 0 of 2, "b" to partition 1.
  ok = WriteRegistry(registry_dir, "three_tenants", 2, {"a", "b", "c"}) && ok;
  return ok ? 0 : 1;
}
