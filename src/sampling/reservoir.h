#ifndef MRLQUANT_SAMPLING_RESERVOIR_H_
#define MRLQUANT_SAMPLING_RESERVOIR_H_

#include <cstdint>
#include <vector>

#include "util/random.h"
#include "util/types.h"

namespace mrl {

/// Classic reservoir sampling (Vitter 1985): maintains a uniform sample of
/// fixed size without advance knowledge of the stream length. This is the
/// paper's Section 2.2 baseline; its O(eps^-2 log delta^-1) space is what
/// the MRL99 non-uniform scheme improves upon.
///
/// Two replacement strategies are provided:
///  * kAlgorithmR — one random draw per element (the textbook method).
///  * kAlgorithmX — Vitter's skip-based variant; draws one random skip
///    length per *accepted* element, so long streams cost far fewer random
///    numbers.
class ReservoirSampler {
 public:
  enum class Method { kAlgorithmR, kAlgorithmX };

  /// `capacity` must be >= 1.
  ReservoirSampler(std::size_t capacity, Random rng,
                   Method method = Method::kAlgorithmR);

  /// Offers the next stream element.
  void Add(Value v);

  /// Elements seen so far.
  std::uint64_t count() const { return count_; }

  std::size_t capacity() const { return capacity_; }

  /// Current sample; uniform over all elements seen so far. Size is
  /// min(count, capacity).
  const std::vector<Value>& sample() const { return sample_; }

 private:
  void AddAlgorithmR(Value v);
  void AddAlgorithmX(Value v);
  void DrawSkip();

  std::size_t capacity_;
  Random rng_;
  Method method_;
  std::vector<Value> sample_;
  std::uint64_t count_ = 0;
  std::uint64_t skip_ = 0;  // Algorithm X: elements to pass over
};

}  // namespace mrl

#endif  // MRLQUANT_SAMPLING_RESERVOIR_H_
