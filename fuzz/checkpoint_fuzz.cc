// Fuzz harness for the checkpoint decode paths (serde format v2) and the
// partial-summary decoder.
//
// A checkpoint is untrusted input: a DBMS operator may hand the library a
// file that was truncated by a crashed writer, bit-flipped by a bad disk,
// or crafted by an attacker, and a RESTORE frame or a backend's
// FETCH_SUMMARY reply carries one over the network. The contract under
// test is that decode NEVER aborts, reads out of bounds, or leaks — it
// either yields a valid sketch or a Status. When decode succeeds, the
// harness also exercises the query path and a re-serialize round trip, so
// "accepted but internally inconsistent" states surface as crashes here
// instead of in production.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/estimator.h"
#include "core/extreme.h"
#include "core/known_n.h"
#include "core/partial.h"
#include "core/unknown_n.h"
#include "util/status.h"

namespace {

constexpr double kPhis[] = {0.0, 0.01, 0.5, 0.99, 1.0};

// Accepted checkpoints must behave like real sketches: queries answer (or
// fail with a Status) and a serialize/deserialize round trip must succeed.
template <typename Sketch>
void ExerciseDecoded(const mrl::Result<Sketch>& decoded) {
  if (!decoded.ok()) return;
  const Sketch& sketch = decoded.value();
  for (double phi : kPhis) {
    mrl::Result<mrl::Value> q = sketch.Query(phi);
    (void)q;
  }
  std::vector<std::uint8_t> again = sketch.Serialize();
  mrl::Result<Sketch> round = Sketch::Deserialize(again);
  if (!round.ok()) {
    // Deserialize accepted bytes it cannot reproduce: a decode/encode
    // asymmetry the fuzzer should report loudly.
    __builtin_trap();
  }
}

// The registry's RESTORE path, through the QuantileEstimator interface:
// Restore into a freshly built sketch, then the same checks as above.
template <typename Sketch, typename Options>
void ExerciseRestore(const std::vector<std::uint8_t>& bytes) {
  const auto fresh = [] {
    mrl::Result<Sketch> made = Sketch::Create(Options{});
    if (!made.ok()) __builtin_trap();
    return std::make_unique<Sketch>(std::move(made).value());
  };
  std::unique_ptr<mrl::QuantileEstimator> sketch = fresh();
  if (!sketch->Restore(bytes).ok()) return;
  for (double phi : kPhis) {
    mrl::Result<mrl::Value> q = sketch->Query(phi);
    (void)q;
  }
  std::vector<std::uint8_t> again = sketch->Serialize();
  if (!fresh()->Restore(again).ok()) __builtin_trap();
}

// The router's fan-out path: a decoded partial summary is merged with the
// coordinator's rules, and must re-encode to bytes that decode again.
void ExercisePartial(const std::vector<std::uint8_t>& bytes) {
  mrl::Result<mrl::PartialSummary> decoded =
      mrl::DeserializePartialSummary(bytes);
  if (!decoded.ok()) return;
  mrl::Result<std::vector<mrl::Value>> merged = mrl::MergePartialQuantiles(
      {decoded.value()}, /*seed=*/1, {0.01, 0.5, 0.99, 1.0});
  (void)merged;
  std::vector<std::uint8_t> again;
  mrl::SerializePartialSummary(decoded.value(), &again);
  if (!mrl::DeserializePartialSummary(again).ok()) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::vector<std::uint8_t> bytes(data, data + size);
  // The header names one sketch kind, but decode of every kind must be
  // safe on arbitrary bytes, so try all of them unconditionally.
  ExerciseDecoded(mrl::UnknownNSketch::Deserialize(bytes));
  ExerciseDecoded(mrl::KnownNSketch::Deserialize(bytes));
  ExerciseDecoded(mrl::ExtremeValueSketch::Deserialize(bytes));
  ExerciseRestore<mrl::UnknownNSketch, mrl::UnknownNOptions>(bytes);
  ExercisePartial(bytes);
  return 0;
}
