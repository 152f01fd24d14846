// Writes a deterministic seed corpus for checkpoint_fuzz into the
// directory named by argv[1]: valid v2 checkpoints of every checkpointable
// sketch kind, plus serialized partial summaries, at several stream
// lengths (empty, mid-fill, post-collapse), so the fuzzer starts from byte
// strings that reach deep into the decoders instead of dying at the
// magic-number check.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/det_reservoir.h"
#include "core/extreme.h"
#include "core/kll.h"
#include "core/known_n.h"
#include "core/partial.h"
#include "core/unknown_n.h"

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

// A fixed full-period LCG keeps the corpus byte-identical across runs and
// platforms (no std::mt19937 distribution variance).
double Synthetic(std::uint64_t i) {
  std::uint64_t x = i * 6364136223846793005ULL + 1442695040888963407ULL;
  return static_cast<double>(x >> 11) / 9007199254740992.0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_corpus <output-dir>\n");
    return 1;
  }
  std::filesystem::path dir(argv[1]);
  std::filesystem::create_directories(dir);
  bool ok = true;

  for (std::uint64_t n : {0ULL, 1000ULL, 200000ULL}) {
    mrl::UnknownNOptions uopt;
    uopt.eps = 0.05;
    uopt.delta = 1e-3;
    mrl::Result<mrl::UnknownNSketch> usketch =
        mrl::UnknownNSketch::Create(uopt);
    if (!usketch.ok()) return 1;
    for (std::uint64_t i = 0; i < n; ++i) usketch.value().Add(Synthetic(i));
    ok = WriteFile(dir, "unknown_n_" + std::to_string(n),
                   usketch.value().Serialize()) &&
         ok;

    // What FETCH_SUMMARY ships: the same sketch's Section 6 partial.
    mrl::PartialSummary summary;
    std::vector<std::uint8_t> partial;
    if (!usketch.value().ExportPartial(&summary).ok()) return 1;
    mrl::SerializePartialSummary(summary, &partial);
    ok = WriteFile(dir, "partial_" + std::to_string(n), partial) && ok;

    mrl::KnownNOptions kopt;
    kopt.eps = 0.05;
    kopt.delta = 1e-3;
    kopt.n = n + 1;
    mrl::Result<mrl::KnownNSketch> ksketch =
        mrl::KnownNSketch::Create(kopt);
    if (!ksketch.ok()) return 1;
    for (std::uint64_t i = 0; i < n; ++i) ksketch.value().Add(Synthetic(i));
    ok = WriteFile(dir, "known_n_" + std::to_string(n),
                   ksketch.value().Serialize()) &&
         ok;

    mrl::ExtremeValueOptions eopt;
    eopt.phi = 0.01;
    eopt.eps = 0.005;
    eopt.delta = 1e-3;
    eopt.n = n + 1;
    mrl::Result<mrl::ExtremeValueSketch> esketch =
        mrl::ExtremeValueSketch::Create(eopt);
    if (!esketch.ok()) return 1;
    for (std::uint64_t i = 0; i < n; ++i) esketch.value().Add(Synthetic(i));
    ok = WriteFile(dir, "extreme_" + std::to_string(n),
                   esketch.value().Serialize()) &&
         ok;

    // The kinds a RESTORE frame reaches besides unknown-N.
    mrl::KllOptions lopt;
    lopt.eps = 0.05;
    lopt.delta = 1e-3;
    mrl::Result<mrl::KllSketch> lsketch = mrl::KllSketch::Create(lopt);
    if (!lsketch.ok()) return 1;
    for (std::uint64_t i = 0; i < n; ++i) lsketch.value().Add(Synthetic(i));
    ok = WriteFile(dir, "kll_" + std::to_string(n),
                   lsketch.value().Serialize()) &&
         ok;

    mrl::DetReservoirOptions ropt;
    ropt.eps = 0.05;
    ropt.delta = 1e-3;
    mrl::Result<mrl::DeterministicReservoirSketch> rsketch =
        mrl::DeterministicReservoirSketch::Create(ropt);
    if (!rsketch.ok()) return 1;
    for (std::uint64_t i = 0; i < n; ++i) rsketch.value().Add(Synthetic(i));
    ok = WriteFile(dir, "det_reservoir_" + std::to_string(n),
                   rsketch.value().Serialize()) &&
         ok;
  }
  return ok ? 0 : 1;
}
