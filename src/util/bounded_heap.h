#ifndef MRLQUANT_UTIL_BOUNDED_HEAP_H_
#define MRLQUANT_UTIL_BOUNDED_HEAP_H_

#include <algorithm>
#include <functional>
#include <vector>

#include "util/logging.h"
#include "util/sort.h"
#include "util/types.h"

namespace mrl {

/// Keeps the `capacity` smallest values pushed so far (a bounded max-heap).
/// This is the storage behind the extreme-value estimator of Section 7: the
/// k-th smallest retained sample element is the quantile estimate.
///
/// With `kLargest = true`, keeps the `capacity` largest values instead
/// (for quantiles near 1).
class KBest {
 public:
  /// `capacity` must be >= 1. `keep_largest` selects which tail to retain.
  KBest(std::size_t capacity, bool keep_largest = false)
      : capacity_(capacity), keep_largest_(keep_largest) {
    MRL_CHECK_GE(capacity, 1u);
    values_.reserve(capacity);
  }

  /// Offers a value; it is retained iff it belongs to the current k-best.
  /// Returns true when the value was retained.
  bool Push(Value v) {
    if (values_.size() < capacity_) {
      values_.push_back(v);
      std::push_heap(values_.begin(), values_.end(), Less());
      return true;
    }
    if (Better(v, values_.front())) {
      std::pop_heap(values_.begin(), values_.end(), Less());
      values_.back() = v;
      std::push_heap(values_.begin(), values_.end(), Less());
      return true;
    }
    return false;
  }

  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  std::size_t capacity() const { return capacity_; }
  bool full() const { return values_.size() == capacity_; }

  /// The worst retained value: the largest of the k smallest (or the
  /// smallest of the k largest). Requires size() >= 1. This is exactly the
  /// Section 7 estimate once the heap is full.
  Value Worst() const {
    MRL_CHECK_GE(values_.size(), 1u);
    return values_.front();
  }

  /// Retained values sorted from the extreme inward (ascending when keeping
  /// smallest; descending when keeping largest), via the radix sort engine
  /// — this extraction runs on every extreme-value query.
  std::vector<Value> SortedFromExtreme() const {
    std::vector<Value> out = values_;
    if (keep_largest_) {
      SortValuesDescending(out.data(), out.size());
    } else {
      SortValues(out.data(), out.size());
    }
    return out;
  }

  /// Mutable access for subsampling in the adaptive extreme sketch.
  /// `keep` decides element-wise retention; the heap is rebuilt afterwards.
  template <typename KeepFn>
  void Filter(KeepFn keep) {
    std::vector<Value> kept;
    kept.reserve(values_.size());
    for (Value v : values_) {
      if (keep(v)) kept.push_back(v);
    }
    values_ = std::move(kept);
    std::make_heap(values_.begin(), values_.end(), Less());
  }

  bool keeps_largest() const { return keep_largest_; }

  /// Raw retained values in heap order (checkpointing; treat as opaque).
  const std::vector<Value>& raw_values() const { return values_; }

  /// Reconstructs a heap from checkpointed values. `values.size()` must
  /// not exceed `capacity`.
  static KBest FromValues(std::size_t capacity, bool keep_largest,
                          std::vector<Value> values) {
    MRL_CHECK_LE(values.size(), capacity);
    KBest heap(capacity, keep_largest);
    heap.values_ = std::move(values);
    std::make_heap(heap.values_.begin(), heap.values_.end(), heap.Less());
    return heap;
  }

 private:
  // Heap comparator so that the *worst* retained element sits at the front.
  std::function<bool(Value, Value)> Less() const {
    if (keep_largest_) {
      return [](Value a, Value b) { return a > b; };  // min-heap
    }
    return [](Value a, Value b) { return a < b; };  // max-heap
  }

  // True when `a` is more worth keeping than `b`.
  bool Better(Value a, Value b) const {
    return keep_largest_ ? (a > b) : (a < b);
  }

  std::size_t capacity_;
  bool keep_largest_;
  std::vector<Value> values_;
};

}  // namespace mrl

#endif  // MRLQUANT_UTIL_BOUNDED_HEAP_H_
