#ifndef MRLQUANT_CORE_PARTIAL_H_
#define MRLQUANT_CORE_PARTIAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/params.h"
#include "util/status.h"
#include "util/types.h"

namespace mrl {

/// A buffer a parallel worker ships to the coordinator on termination
/// (Section 6): its elements, their common weight, and whether the buffer
/// is full (exactly k elements) or partial.
struct ShippedBuffer {
  std::vector<Value> values;
  Weight weight = 1;
  bool full = false;
};

/// A self-describing bundle of shipped buffers: the distributed hand-off
/// format of the Section 6 protocol. A backend exports one non-destructively
/// (QuantileEstimator::ExportPartial), ships it over the wire
/// (Serialize/DeserializePartialSummary below), and a router merges any
/// number of them with the coordinator's own rules (MergePartialQuantiles)
/// — no re-ingestion.
///
/// The merged answers keep the producers' (eps, delta) only when every
/// producer was solved for the protocol with SolveParallelWorker (Eq. 4-6):
/// its tree constraint h + h' + 1 <= 2*alpha*eps*k reserves the h' levels
/// the coordinator's collapses add. A producer solved with SolveUnknownN,
/// as every daemon tenant is, spends that budget on its own tree, so the
/// merge's extra height pushes the error bound past the producers' eps.
struct PartialSummary {
  /// Parameters of the producing sketch. Merging requires identical k
  /// across summaries (the collapse tree operates on k-element buffers).
  UnknownNParams params;
  /// Elements the producer had consumed at export time.
  std::uint64_t count = 0;
  std::vector<ShippedBuffer> buffers;
};

/// Appends the versioned wire encoding of `summary` to *out.
void SerializePartialSummary(const PartialSummary& summary,
                             std::vector<std::uint8_t>* out);

/// Decodes SerializePartialSummary output. The input is untrusted (it
/// arrives over the network): every field is validated — magic/version,
/// parameter ranges (the same caps as the sketch checkpoint decoder),
/// full-buffer sizes, weights, NaN elements — so a hostile blob can never
/// reach the coordinator's CHECK-aborting ingest path.
Result<PartialSummary> DeserializePartialSummary(
    std::span<const std::uint8_t> bytes);

/// Merges any number of partial summaries with the Section 6 coordinator
/// rules (full buffers enter a collapse tree with weights retained;
/// partials are staged with subsample-the-lighter reconciliation) and
/// answers every phi. Requires at least one summary and identical k across
/// all of them; `seed` drives the Bernoulli reconciliation draws.
Result<std::vector<Value>> MergePartialQuantiles(
    const std::vector<PartialSummary>& parts, std::uint64_t seed,
    const std::vector<double>& phis);

}  // namespace mrl

#endif  // MRLQUANT_CORE_PARTIAL_H_
