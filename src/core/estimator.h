#ifndef MRLQUANT_CORE_ESTIMATOR_H_
#define MRLQUANT_CORE_ESTIMATOR_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"
#include "util/types.h"

namespace mrl {

/// Common measuring interface of every single-pass quantile estimator in
/// the library (the MRL99 sketches, the KLL and deterministic-reservoir
/// comparators, and the baselines): ingest, query, footprint, and the
/// checkpoint round trip. The differential, accuracy and bench harnesses
/// drive backends through it to compare them on one stream. The serving
/// registry does not: it holds the one served sketch, UnknownNSketch,
/// concretely, and combines partitions only through its Section 6 partial
/// export (core/partial.h).
class QuantileEstimator {
 public:
  virtual ~QuantileEstimator() = default;

  /// Consumes one stream element.
  ///
  /// NaN contract: the algorithms are comparison based, so NaN input has no
  /// defined rank and is a caller error. The core sketches trap (CHECK-
  /// abort) any NaN that would enter sketch state — every element on the
  /// element-wise path, sampled survivors and the pending block candidate
  /// on the batch path — and MRLQUANT_AUDIT builds scan whole batches
  /// (audit::CheckNoNaN). ±inf, ±0.0 and denormals are ordinary values.
  virtual void Add(Value v) = 0;

  /// Consumes a contiguous span of stream elements, equivalent to calling
  /// Add on each in turn. Sketches with a batch ingestion fast path
  /// (UnknownNSketch and its wrappers) override this with an implementation
  /// that is bit-identical to the element-wise loop under the same seed but
  /// substantially faster; the default simply loops.
  /// tests/batch_equivalence_test.cc pins the bit-identity contract for
  /// every backend.
  virtual void AddBatch(std::span<const Value> values) {
    for (Value v : values) Add(v);
  }

  /// Elements consumed so far.
  virtual std::uint64_t count() const = 0;

  /// Estimate of the phi-quantile of everything consumed so far.
  /// Fails with FailedPrecondition before any element has been consumed and
  /// InvalidArgument for phi outside (0, 1].
  virtual Result<Value> Query(double phi) const = 0;

  /// Answers every phi in one call. Backends with a merged-summary batch
  /// path override this to build their synopsis once; the default loops
  /// Query. Fails under the same conditions as Query.
  virtual Result<std::vector<Value>> QueryMany(
      const std::vector<double>& phis) const {
    std::vector<Value> answers;
    answers.reserve(phis.size());
    for (double phi : phis) {
      Result<Value> answer = Query(phi);
      if (!answer.ok()) return answer.status();
      answers.push_back(answer.value());
    }
    return answers;
  }

  /// Peak main-memory footprint in stored elements (the unit the paper's
  /// tables use).
  virtual std::uint64_t MemoryElements() const = 0;

  /// Peak main-memory footprint in bytes. The default charges
  /// sizeof(Value) per stored element; backends that carry per-element
  /// metadata (e.g. the deterministic reservoir's hash tags) override it.
  virtual std::uint64_t MemoryBytes() const {
    return MemoryElements() * sizeof(Value);
  }

  /// Short display name for reports.
  virtual std::string name() const = 0;

  // -------------------------------------------------------------------------
  // Checkpoint surface

  /// Encodes the complete sketch state in the backend's versioned
  /// checkpoint format (docs/checkpoint_format.md). Returns an empty blob
  /// for backends without checkpoint support.
  virtual std::vector<std::uint8_t> Serialize() const { return {}; }

  /// Restores this instance from Serialize() output of a structurally
  /// compatible sketch. Rejects truncated, corrupt or kind-mismatched
  /// input with a Status rather than crashing; on error the sketch is
  /// unchanged. The default (non-checkpoint backends) is Unimplemented.
  virtual Status Restore(std::span<const std::uint8_t> bytes) {
    (void)bytes;
    return Status::Unimplemented("this backend does not support Restore");
  }

  /// Convenience: consume a whole vector (via the batch path).
  void AddAll(const std::vector<Value>& values) {
    AddBatch(std::span<const Value>(values.data(), values.size()));
  }
};

}  // namespace mrl

#endif  // MRLQUANT_CORE_ESTIMATOR_H_
