#ifndef MRLQUANT_CORE_KLL_H_
#define MRLQUANT_CORE_KLL_H_

#include <cstdint>
#include <vector>

#include "core/estimator.h"
#include "util/random.h"
#include "util/sort.h"
#include "util/status.h"
#include "util/types.h"

namespace mrl {

/// Configuration for the KLL backend. Either pin `k` directly or leave it 0
/// and let Create derive it from (eps, delta) via the empirical
/// single-stream error fit (see KllSketch).
struct KllOptions {
  double eps = 0.01;
  double delta = 1e-4;
  std::uint64_t seed = 1;
  /// Base compactor capacity; 0 derives k from (eps, delta).
  std::uint32_t k = 0;
};

/// KLL sketch (Karnin, Lang, Liberty, FOCS 2016) with the lazy compaction
/// schedule of Ivkin et al. (2019): a hierarchy of compactors where level l
/// holds items of weight 2^l and has capacity max(2, ceil(k * c^(H-1-l)))
/// with c = 2/3. Items enter at level 0; when the total held count exceeds
/// the total capacity, the lowest over-capacity level is sorted and every
/// other element (random offset) is promoted to the next level at doubled
/// weight. Pair promotion conserves total held weight exactly — an odd
/// element is held back at its level — so sum(size_l * 2^l) == count() is a
/// hard invariant (checked on Restore).
///
/// This is the contrast backend to the MRL99 collapse tree: mergeable
/// without structural coupling beyond k, and with memory O((1/eps)^1.06)
/// independent of the stream length. Compaction sorts run through the
/// radix-sort engine (util/sort.h) against a member SortScratch and the
/// per-level buffers retain their storage across compactions, so
/// steady-state ingestion performs no heap allocation.
class KllSketch : public QuantileEstimator {
 public:
  static Result<KllSketch> Create(const KllOptions& options);

  KllSketch(KllSketch&&) = default;
  KllSketch& operator=(KllSketch&&) = default;

  void Add(Value v) override;
  std::uint64_t count() const override { return count_; }

  Result<Value> Query(double phi) const override;
  Result<std::vector<Value>> QueryMany(
      const std::vector<double>& phis) const override;

  std::uint64_t MemoryElements() const override { return total_capacity_; }
  std::string name() const override { return "kll"; }

  /// Merges another KLL sketch with the same k. Appends the other sketch's
  /// compactors level-wise and re-runs lazy compaction; seeds need not
  /// match (randomness only enters at compaction time).
  Status Merge(const QuantileEstimator& other) override;

  std::vector<std::uint8_t> Serialize() const override;
  Status Restore(std::span<const std::uint8_t> bytes) override;
  static Result<KllSketch> Deserialize(std::span<const std::uint8_t> bytes);

  std::uint32_t k() const { return k_; }
  std::size_t num_levels() const { return levels_.size(); }
  /// Items currently held across all levels (<= MemoryElements() after
  /// every Add returns).
  std::uint64_t held_items() const { return size_; }

  /// Derived base capacity for an (eps, delta) target: inverts the
  /// DataSketches empirical fit eps ~= 2.296 / k^0.9433 (99% confidence),
  /// widened by sqrt(ln(1/delta)/ln(100)) for smaller delta.
  static std::uint32_t SolveK(double eps, double delta);

 private:
  KllSketch(const KllOptions& options, std::uint32_t k);

  std::size_t LevelCapacity(std::size_t level) const;
  void RecomputeCapacity();
  /// Compacts the lowest over-capacity level until the total held count is
  /// back within the total capacity.
  void Compress();
  void CompactLevel(std::size_t level);
  /// All held (value, weight) records sorted by value (stable).
  std::vector<KeyedPayload> SortedSummary() const;

  KllOptions options_;
  std::uint32_t k_ = 0;
  Random rng_;
  /// levels_[l] holds items of weight 2^l, unsorted between compactions.
  std::vector<std::vector<Value>> levels_;
  std::uint64_t size_ = 0;   ///< items held across all levels
  std::uint64_t count_ = 0;  ///< stream elements consumed
  std::uint64_t total_capacity_ = 0;
  SortScratch scratch_;
};

}  // namespace mrl

#endif  // MRLQUANT_CORE_KLL_H_
