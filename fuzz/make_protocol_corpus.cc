// Writes a deterministic seed corpus for fuzz_protocol_decode into the
// directory named by argv[1]: one well-formed frame of every request type
// plus every response shape, built with the real encoders so the fuzzer
// starts past the header/CRC checks and inside the request decoders.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "server/protocol.h"

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

}  // namespace

int main(int argc, char** argv) {
  using namespace mrl::server;  // NOLINT(build/namespaces)
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_protocol_corpus <output-dir>\n");
    return 1;
  }
  std::filesystem::path dir(argv[1]);
  std::filesystem::create_directories(dir);
  bool ok = true;
  std::vector<std::uint8_t> wire;

  TenantConfig sharded;
  sharded.kind = SketchKind::kSharded;
  sharded.eps = 0.02;
  sharded.delta = 1e-3;
  sharded.num_shards = 8;
  sharded.seed = 42;
  EncodeCreateSketch("tenant-a", sharded, &wire);
  ok = WriteFile(dir, "create_sharded", wire) && ok;

  wire.clear();
  EncodeCreateSketch("t", TenantConfig{}, &wire);
  ok = WriteFile(dir, "create_default", wire) && ok;

  // Protocol v2 backends: seed the fuzzer with well-formed CREATE_SKETCH
  // frames for each new kind byte so mutations explore the kind validator
  // from inside valid frames.
  wire.clear();
  TenantConfig kll;
  kll.kind = SketchKind::kKll;
  kll.eps = 0.005;
  kll.delta = 1e-4;
  kll.seed = 7;
  EncodeCreateSketch("tenant-k", kll, &wire);
  ok = WriteFile(dir, "create_kll", wire) && ok;

  wire.clear();
  TenantConfig reservoir;
  reservoir.kind = SketchKind::kDetReservoir;
  reservoir.eps = 0.01;
  reservoir.delta = 1e-3;
  reservoir.seed = 9;
  EncodeCreateSketch("tenant-r", reservoir, &wire);
  ok = WriteFile(dir, "create_det_reservoir", wire) && ok;

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
  EncodeRestore("tenant-a", sharded, checkpoint, &wire);
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
  EncodeSnapshotOk(blob, &wire);
  ok = WriteFile(dir, "response_snapshot", wire) && ok;

  wire.clear();
  StatsReply stats;
  stats.num_tenants = 2;
  stats.total_count = 1000000;
  stats.tenant_present = true;
  stats.tenant_kind = SketchKind::kSharded;
  stats.tenant_count = 600000;
  stats.tenant_memory_elements = 4096;
  EncodeStatsOk(stats, &wire);
  ok = WriteFile(dir, "response_stats", wire) && ok;

  wire.clear();
  const std::vector<std::uint8_t> partial = {0x4D, 0x52, 0x4C, 0x50, 0x01};
  EncodeFetchSummaryOk(partial, &wire);
  ok = WriteFile(dir, "response_fetch_summary", wire) && ok;

  // A two-frame stream exercises the framing advance in the harness.
  wire.clear();
  EncodeQuery("a", 0.25, &wire);
  EncodeNameRequest(MsgType::kDelete, "b", &wire);
  ok = WriteFile(dir, "two_frames", wire) && ok;

  return ok ? 0 : 1;
}
