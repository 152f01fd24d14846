#include "util/math.h"

#include <math.h>

#include <cmath>

#include "util/logging.h"

namespace mrl {

namespace {
constexpr std::uint64_t kSaturated = std::numeric_limits<std::uint64_t>::max();
}  // namespace

std::uint64_t SaturatingBinomial(std::uint64_t n, std::uint64_t r) {
  if (r > n) return 0;
  if (r > n - r) r = n - r;
  if (r == 0) return 1;
  // Detect saturation cheaply with the log form before multiplying.
  if (LogBinomial(n, r) > 43.6) {  // ln(2^63) ~ 43.67
    return kSaturated;
  }
  std::uint64_t result = 1;
  for (std::uint64_t i = 1; i <= r; ++i) {
    // result * (n - r + i) / i is always integral at each step.
    result = result / i * (n - r + i) + result % i * (n - r + i) / i;
  }
  return result;
}

double LogBinomial(std::uint64_t n, std::uint64_t r) {
  MRL_CHECK_LE(r, n);
  // lgamma_r, not std::lgamma: lgamma writes glibc's global `signgam`, a
  // data race when threads solve parameters concurrently (tenant creates
  // do). Every argument is >= 1, so the sign is always +.
  int sign = 0;
  return ::lgamma_r(static_cast<double>(n) + 1.0, &sign) -
         ::lgamma_r(static_cast<double>(r) + 1.0, &sign) -
         ::lgamma_r(static_cast<double>(n - r) + 1.0, &sign);
}

double KlBernoulli(double p, double q) {
  MRL_CHECK(p >= 0.0 && p <= 1.0) << "p=" << p;
  MRL_CHECK(q >= 0.0 && q <= 1.0) << "q=" << q;
  auto term = [](double a, double b) {
    if (a == 0.0) return 0.0;
    if (b == 0.0) return std::numeric_limits<double>::infinity();
    return a * std::log(a / b);
  };
  return term(p, q) + term(1.0 - p, 1.0 - q);
}

std::uint64_t HoeffdingSampleSize(double eps, double delta) {
  MRL_CHECK(eps > 0.0 && eps < 1.0) << "eps=" << eps;
  MRL_CHECK(delta > 0.0 && delta < 1.0) << "delta=" << delta;
  double s = std::log(2.0 / delta) / (2.0 * eps * eps);
  return static_cast<std::uint64_t>(std::ceil(s));
}

std::uint64_t SteinSampleSize(double phi, double eps, double delta) {
  MRL_CHECK(phi > 0.0 && phi < 1.0) << "phi=" << phi;
  MRL_CHECK_GT(eps, 0.0);
  MRL_CHECK(delta > 0.0 && delta < 1.0) << "delta=" << delta;
  double d_lo = (phi - eps > 0.0)
                    ? KlBernoulli(phi, phi - eps)
                    : std::numeric_limits<double>::infinity();
  double d_hi = (phi + eps < 1.0)
                    ? KlBernoulli(phi, phi + eps)
                    : std::numeric_limits<double>::infinity();
  auto failure = [&](double s) {
    double f = 0.0;
    if (std::isfinite(d_lo)) f += std::exp(-s * d_lo);
    if (std::isfinite(d_hi)) f += std::exp(-s * d_hi);
    return f;
  };
  if (failure(1.0) <= delta) return 1;
  // Exponential search for an upper bracket, then binary search.
  double hi = 1.0;
  while (failure(hi) > delta) {
    hi *= 2.0;
    MRL_CHECK_LT(hi, 1e18) << "SteinSampleSize diverged";
  }
  double lo = hi / 2.0;
  for (int i = 0; i < 64; ++i) {
    double mid = 0.5 * (lo + hi);
    if (failure(mid) > delta) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return static_cast<std::uint64_t>(std::ceil(hi));
}

std::uint64_t NextPow2(std::uint64_t x) {
  MRL_CHECK_GE(x, 1u);
  std::uint64_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

}  // namespace mrl
