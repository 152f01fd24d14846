#include "util/sort.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"
#include "util/simd.h"

namespace mrl {
namespace {

/// Below this size the constant costs of the radix path (16 KiB histogram
/// clear, transform + write-back passes) beat its O(n) advantage;
/// std::sort over OrderedLess wins. Tuned with bench/sort_kernels.cc.
constexpr std::size_t kRadixCutoff = 256;
constexpr int kRadixPasses = 8;

/// How far ahead the counting scatter prefetches its destination. The
/// store address for element i+d is only known exactly at step i+d (pos[]
/// advances between now and then), but by at most d slots — well inside
/// the prefetched line's 64-byte reach for d = 16. One line ≈ 8 keys, so
/// 16 keeps roughly two lines of slack ahead of the store stream without
/// overrunning the L1 fill buffers.
constexpr std::size_t kScatterPrefetchDistance = 16;

MRLQUANT_HOT void TransformKeys(const Value* in, std::uint64_t* out,
                                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = OrderedKeyFromValue(in[i]);
}

MRLQUANT_HOT void InverseKeys(const std::uint64_t* in, Value* out,
                              std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = ValueFromOrderedKey(in[i]);
}

/// All eight byte histograms of keys[0..n) in one fused pass (one read of
/// the data instead of eight). Fully overwrites `hist`.
MRLQUANT_HOT void Histogram(const std::uint64_t* keys, std::size_t n,
                            std::size_t (*hist)[256]) {
  std::memset(hist, 0, kRadixPasses * 256 * sizeof(hist[0][0]));
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = keys[i];
    ++hist[0][k & 0xFF];
    ++hist[1][(k >> 8) & 0xFF];
    ++hist[2][(k >> 16) & 0xFF];
    ++hist[3][(k >> 24) & 0xFF];
    ++hist[4][(k >> 32) & 0xFF];
    ++hist[5][(k >> 40) & 0xFF];
    ++hist[6][(k >> 48) & 0xFF];
    ++hist[7][(k >> 56) & 0xFF];
  }
}

/// LSD radix core over scratch->keys[0..n): one counting scatter per
/// non-uniform byte position, ping-ponging between keys and keys_alt (and,
/// when kWithPayload, between the payload mirrors — the scatter moves each
/// record's payload alongside its key, which is what makes the sort
/// stable). `hist` holds all eight byte histograms of the keys (built by
/// the caller with Histogram). Returns the array holding the sorted keys;
/// *payload_out (when kWithPayload) receives the matching payload array.
/// Requires n >= 1 and all four scratch vectors resized to n by the
/// caller.
template <bool kWithPayload>
const std::uint64_t* RadixSortKeys(SortScratch* scratch, std::size_t n,
                                   const std::size_t (*hist)[256],
                                   const std::uint64_t** payload_out) {
  std::uint64_t* src = scratch->keys.data();
  std::uint64_t* dst = scratch->keys_alt.data();
  std::uint64_t* psrc = kWithPayload ? scratch->payload.data() : nullptr;
  std::uint64_t* pdst = kWithPayload ? scratch->payload_alt.data() : nullptr;
  for (int p = 0; p < kRadixPasses; ++p) {
    const int shift = 8 * p;
    // Skip detection: a byte position on which every key agrees scatters
    // into a single bucket — the identity permutation. The histogram is a
    // multiset property, so probing it through the current src is exact.
    if (hist[p][(src[0] >> shift) & 0xFF] == n) continue;
    std::size_t pos[256];
    std::size_t sum = 0;
    for (int j = 0; j < 256; ++j) {
      pos[j] = sum;
      sum += hist[p][j];
    }
    for (std::size_t i = 0; i < n; ++i) {
      // The scatter's stores are the one random-access stream in the
      // engine. Peeking the digit of the key kScatterPrefetchDistance
      // ahead and prefetching its current bucket cursor hides most of the
      // store-miss latency; the cursor may advance before that store
      // lands, but never by more than the distance, so the prefetched
      // line is (almost) always the one the store hits.
      if (i + kScatterPrefetchDistance < n) {
        const std::uint64_t ahead = src[i + kScatterPrefetchDistance];
        simd::PrefetchWrite(&dst[pos[(ahead >> shift) & 0xFF]]);
      }
      const std::uint64_t k = src[i];
      const std::size_t d = pos[(k >> shift) & 0xFF]++;
      dst[d] = k;
      if constexpr (kWithPayload) pdst[d] = psrc[i];
    }
    std::swap(src, dst);
    if constexpr (kWithPayload) std::swap(psrc, pdst);
  }
  if constexpr (kWithPayload) *payload_out = psrc;
  return src;
}

}  // namespace

void SortValues(Value* data, std::size_t n, SortScratch* scratch) {
  if (n < kRadixCutoff) {
    std::sort(data, data + n, OrderedLess);
    return;
  }
  MRL_DCHECK(scratch != nullptr);
  // NOLINTNEXTLINE(mrlquant-no-alloc-in-hot-path): SortScratch arena —
  // warmed to the largest n seen, then recycled allocation-free.
  scratch->keys.resize(n);
  // NOLINTNEXTLINE(mrlquant-no-alloc-in-hot-path): arena
  scratch->keys_alt.resize(n);
  std::size_t hist[kRadixPasses][256];
  TransformKeys(data, scratch->keys.data(), n);
  Histogram(scratch->keys.data(), n, hist);
  const std::uint64_t* sorted =
      RadixSortKeys<false>(scratch, n, hist, nullptr);
  InverseKeys(sorted, data, n);
}

void SortValues(Value* data, std::size_t n) {
  thread_local SortScratch scratch;
  SortValues(data, n, &scratch);
}

void SortValuesDescending(Value* data, std::size_t n) {
  SortValues(data, n);
  std::reverse(data, data + n);
}

void SortPairs(KeyedPayload* data, std::size_t n, SortScratch* scratch) {
  if (n < kRadixCutoff) {
    std::stable_sort(data, data + n,
                     [](const KeyedPayload& a, const KeyedPayload& b) {
                       return OrderedLess(a.first, b.first);
                     });
    return;
  }
  MRL_DCHECK(scratch != nullptr);
  // NOLINTNEXTLINE(mrlquant-no-alloc-in-hot-path): SortScratch arena —
  // warmed to the largest n seen, then recycled allocation-free.
  scratch->keys.resize(n);
  // NOLINTNEXTLINE(mrlquant-no-alloc-in-hot-path): arena
  scratch->keys_alt.resize(n);
  // NOLINTNEXTLINE(mrlquant-no-alloc-in-hot-path): arena
  scratch->payload.resize(n);
  // NOLINTNEXTLINE(mrlquant-no-alloc-in-hot-path): arena
  scratch->payload_alt.resize(n);
  std::uint64_t* keys = scratch->keys.data();
  std::uint64_t* payload = scratch->payload.data();
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = OrderedKeyFromValue(data[i].first);
    payload[i] = data[i].second;
  }
  std::size_t hist[kRadixPasses][256];
  Histogram(keys, n, hist);
  const std::uint64_t* sorted_payload = nullptr;
  const std::uint64_t* sorted =
      RadixSortKeys<true>(scratch, n, hist, &sorted_payload);
  for (std::size_t i = 0; i < n; ++i) {
    data[i].first = ValueFromOrderedKey(sorted[i]);
    data[i].second = sorted_payload[i];
  }
}

void SortPairs(KeyedPayload* data, std::size_t n) {
  thread_local SortScratch scratch;
  SortPairs(data, n, &scratch);
}

void SortValuesNaive(Value* data, std::size_t n) {
  std::sort(data, data + n, OrderedLess);
}

void SortPairsNaive(KeyedPayload* data, std::size_t n) {
  std::stable_sort(data, data + n,
                   [](const KeyedPayload& a, const KeyedPayload& b) {
                     return OrderedLess(a.first, b.first);
                   });
}

}  // namespace mrl
