// Cross-backend differential tests: the (eps, delta)-configured backends —
// the MRL99 sketches and the KLL comparator —
// driven purely through the QuantileEstimator interface, raced against an
// exact sorted baseline on adversarial input orders — pre-sorted, reverse
// sorted, Zipf-like duplicate-heavy, three-valued, and IEEE specials
// (+/-inf and +/-0.0 mixed into normals). An answer passes when the rank
// band it covers in the sorted stream intersects [phi - eps, phi + eps].

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/estimator.h"
#include "core/kll.h"
#include "core/known_n.h"
#include "core/unknown_n.h"
#include "util/random.h"

namespace mrl {
namespace {

constexpr double kEps = 0.02;
constexpr double kDelta = 1e-4;
constexpr std::size_t kStreamLen = 40000;

struct NamedStream {
  std::string name;
  std::vector<Value> values;
};

std::vector<NamedStream> AdversarialStreams(std::size_t n) {
  Random rng(2024);
  std::vector<NamedStream> streams;

  NamedStream uniform{"uniform_shuffled", {}};
  uniform.values.resize(n);
  for (Value& v : uniform.values) v = rng.UniformDouble(-1e6, 1e6);
  streams.push_back(uniform);

  NamedStream sorted{"sorted_ascending", uniform.values};
  std::sort(sorted.values.begin(), sorted.values.end());
  streams.push_back(sorted);

  NamedStream reversed{"sorted_descending", sorted.values};
  std::reverse(reversed.values.begin(), reversed.values.end());
  streams.push_back(std::move(reversed));

  // Log-uniform over [1, 1000]: heavy duplication of small integers, the
  // classic Zipf-like frequency skew.
  NamedStream zipf{"zipf_duplicates", {}};
  zipf.values.resize(n);
  for (Value& v : zipf.values) {
    v = std::floor(std::exp(rng.UniformDouble() * std::log(1000.0)));
  }
  streams.push_back(std::move(zipf));

  // Only three distinct values: every quantile answer covers a huge rank
  // band, and ties dominate every compaction / collapse decision.
  NamedStream three{"three_distinct_values", {}};
  three.values.resize(n);
  for (Value& v : three.values) {
    const std::uint64_t r = rng.UniformUint64(10);
    v = r < 6 ? 1.0 : (r < 9 ? 2.0 : 3.0);
  }
  streams.push_back(std::move(three));

  // IEEE specials: infinities at the tails, signed zeros mid-stream.
  NamedStream specials{"ieee_specials", {}};
  specials.values.resize(n);
  for (Value& v : specials.values) {
    const std::uint64_t r = rng.UniformUint64(100);
    if (r < 2) {
      v = std::numeric_limits<Value>::infinity();
    } else if (r < 4) {
      v = -std::numeric_limits<Value>::infinity();
    } else if (r < 14) {
      v = 0.0;
    } else if (r < 24) {
      v = -0.0;
    } else {
      v = rng.UniformDouble(-1.0, 1.0);
    }
  }
  streams.push_back(std::move(specials));

  return streams;
}

/// Checks that the rank band `answer` covers in `sorted` intersects
/// [phi - eps, phi + eps]. With duplicates an answer covers a band, not a
/// point, so both edges get the tolerance.
void ExpectWithinEps(const std::vector<Value>& sorted, Value answer,
                     double phi, double eps) {
  const double n = static_cast<double>(sorted.size());
  const double rank_lo = static_cast<double>(
      std::lower_bound(sorted.begin(), sorted.end(), answer) -
      sorted.begin()) / n;
  const double rank_hi = static_cast<double>(
      std::upper_bound(sorted.begin(), sorted.end(), answer) -
      sorted.begin()) / n;
  EXPECT_LE(rank_lo - eps, phi)
      << "answer " << answer << " sits entirely above phi=" << phi;
  EXPECT_GE(rank_hi + eps, phi)
      << "answer " << answer << " sits entirely below phi=" << phi;
}

struct Backend {
  const char* name;
  std::function<std::unique_ptr<QuantileEstimator>(std::uint64_t)> make;
};

std::vector<Backend> EpsDeltaBackends() {
  std::vector<Backend> backends;
  backends.push_back({"unknown_n", [](std::uint64_t seed) {
    UnknownNOptions options;
    options.eps = kEps;
    options.delta = kDelta;
    options.seed = seed;
    return std::unique_ptr<QuantileEstimator>(new UnknownNSketch(
        std::move(UnknownNSketch::Create(options)).value()));
  }});
  backends.push_back({"known_n", [](std::uint64_t seed) {
    KnownNOptions options;
    options.eps = kEps;
    options.delta = kDelta;
    options.n = kStreamLen;
    options.seed = seed;
    return std::unique_ptr<QuantileEstimator>(
        new KnownNSketch(std::move(KnownNSketch::Create(options)).value()));
  }});
  backends.push_back({"kll", [](std::uint64_t seed) {
    KllOptions options;
    options.eps = kEps;
    options.delta = kDelta;
    options.seed = seed;
    return std::unique_ptr<QuantileEstimator>(
        new KllSketch(std::move(KllSketch::Create(options)).value()));
  }});
  return backends;
}

const std::vector<double> kPhis = {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99};

TEST(BackendDifferentialTest, EveryBackendWithinEpsOnAdversarialOrders) {
  const std::vector<NamedStream> streams = AdversarialStreams(kStreamLen);
  for (const Backend& backend : EpsDeltaBackends()) {
    for (const NamedStream& stream : streams) {
      SCOPED_TRACE(std::string(backend.name) + " on " + stream.name);
      std::unique_ptr<QuantileEstimator> sketch = backend.make(7);
      sketch->AddAll(stream.values);
      ASSERT_EQ(sketch->count(), stream.values.size());

      std::vector<Value> sorted = stream.values;
      std::sort(sorted.begin(), sorted.end());

      Result<std::vector<Value>> query = sketch->QueryMany(kPhis);
      ASSERT_TRUE(query.ok()) << query.status().ToString();
      const std::vector<Value> answers = std::move(query).value();
      ASSERT_EQ(answers.size(), kPhis.size());
      for (std::size_t i = 0; i < kPhis.size(); ++i) {
        SCOPED_TRACE("phi=" + std::to_string(kPhis[i]));
        ExpectWithinEps(sorted, answers[i], kPhis[i], kEps);
      }
    }
  }
}

// The acceptance bar for the KLL backend specifically: observed error must
// stay within the CONFIGURED eps on every adversarial distribution, across
// several seeds — not just the one lucky draw.
TEST(BackendDifferentialTest, KllObservedErrorWithinConfiguredEps) {
  const std::vector<NamedStream> streams = AdversarialStreams(kStreamLen);
  for (std::uint64_t seed : {1ull, 17ull, 404ull}) {
    for (const NamedStream& stream : streams) {
      SCOPED_TRACE(stream.name + " seed=" + std::to_string(seed));
      KllOptions options;
      options.eps = kEps;
      options.delta = kDelta;
      options.seed = seed;
      KllSketch sketch = std::move(KllSketch::Create(options)).value();
      sketch.AddAll(stream.values);

      std::vector<Value> sorted = stream.values;
      std::sort(sorted.begin(), sorted.end());
      for (double phi : kPhis) {
        SCOPED_TRACE("phi=" + std::to_string(phi));
        Result<Value> answer = sketch.Query(phi);
        ASSERT_TRUE(answer.ok()) << answer.status().ToString();
        ExpectWithinEps(sorted, answer.value(), phi, kEps);
      }
    }
  }
}

}  // namespace
}  // namespace mrl
