#include "stats/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "stats/fnv.h"

namespace vdbench::stats {

namespace {

// SplitMix64 finaliser; used to derive well-mixed child seeds.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// High and low words of the 128-bit product a*b, from 32-bit halves (a bare
// __int128 is not standard C++).
void mul_64x64(std::uint64_t a, std::uint64_t b, std::uint64_t& hi,
               std::uint64_t& lo) {
  constexpr std::uint64_t kLow32 = 0xFFFFFFFFULL;
  const std::uint64_t a_lo = a & kLow32, a_hi = a >> 32;
  const std::uint64_t b_lo = b & kLow32, b_hi = b >> 32;
  const std::uint64_t ll = a_lo * b_lo, lh = a_lo * b_hi;
  const std::uint64_t hl = a_hi * b_lo, hh = a_hi * b_hi;
  const std::uint64_t mid = (ll >> 32) + (lh & kLow32) + (hl & kLow32);
  lo = (mid << 32) | (ll & kLow32);
  hi = hh + (lh >> 32) + (hl >> 32) + (mid >> 32);
}

// Binomial by sequential inversion of the cdf, for n*p < 10 and p <= 0.5:
// the pmf starts at q^n and each step multiplies by f(x)/f(x-1). The
// expected number of steps is n*p + 1.
std::uint64_t binomial_inversion(Rng& rng, std::uint64_t n, double p) {
  const double q = 1.0 - p;
  const double s = p / q;
  const double a = (static_cast<double>(n) + 1.0) * s;
  double f = std::pow(q, static_cast<double>(n));
  double u = rng.uniform();
  std::uint64_t x = 0;
  while (u > f && x < n) {
    u -= f;
    ++x;
    f *= a / static_cast<double>(x) - s;
  }
  return x;
}

// fc(k) = log(k!) - [(k + 1/2) log(k + 1) - (k + 1) + log(2 pi) / 2], the
// error of Stirling's formula: tabulated below 10, from its series above.
double stirling_tail(double k) {
  static constexpr double kTable[10] = {
      0.08106146679532726, 0.04134069595540929, 0.02767792568499834,
      0.02079067210376509, 0.01664469118982119, 0.01387612882307075,
      0.01189670994589177, 0.01041126526197209, 0.009255462182712733,
      0.008330563433362871};
  if (k < 10.0) return kTable[static_cast<int>(k)];
  const double r = 1.0 / (k + 1.0);
  const double r2 = r * r;
  return (1.0 / 12.0 - (1.0 / 360.0 - r2 / 1260.0) * r2) * r;
}

// Binomial by transformed rejection with decomposition (BTRD; W. Hörmann,
// "The generation of binomial random variates", J. Statist. Comput. Simul.
// 46, 1993), for n*p >= 10 and p <= 0.5. Step numbers follow the paper.
std::uint64_t binomial_btrd(Rng& rng, std::uint64_t n, double p) {
  // Step 0: set-up.
  const double nd = static_cast<double>(n);
  const double m = std::floor((nd + 1.0) * p);
  const double r = p / (1.0 - p);
  const double nr = (nd + 1.0) * r;
  const double npq = nd * p * (1.0 - p);
  const double sqrt_npq = std::sqrt(npq);
  const double b = 1.15 + 2.53 * sqrt_npq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double alpha = (2.83 + 5.1 / b) * sqrt_npq;
  const double v_r = 0.92 - 4.2 / b;
  const double u_rv_r = 0.86 * v_r;
  for (;;) {
    // Step 1: the central triangle, where most draws are accepted at once.
    double v = rng.uniform();
    double u = 0.0;
    if (v <= u_rv_r) {
      u = v / v_r - 0.43;
      return static_cast<std::uint64_t>(
          std::floor((2.0 * a / (0.5 - std::abs(u)) + b) * u + c));
    }
    // Step 2: a point (u, v) under the hat outside the triangle.
    if (v >= v_r) {
      u = rng.uniform() - 0.5;
    } else {
      u = v / v_r - 0.93;
      u = (u < 0.0 ? -0.5 : 0.5) - u;
      v = rng.uniform() * v_r;
    }
    // Step 3.0: transform to k and scale v to the pmf ratio f(k)/f(m).
    const double us = 0.5 - std::abs(u);
    const double k = std::floor((2.0 * a / us + b) * u + c);
    if (k < 0.0 || k > nd) continue;
    v = v * alpha / (a / (us * us) + b);
    const double km = std::abs(k - m);
    if (km <= 15.0) {
      // Step 3.1: near the mode, evaluate f(k)/f(m) by its recursion.
      double f = 1.0;
      if (m < k) {
        for (double i = m + 1.0; i <= k; i += 1.0) f *= nr / i - r;
      } else if (m > k) {
        for (double i = k + 1.0; i <= m; i += 1.0) v *= nr / i - r;
      }
      if (v <= f) return static_cast<std::uint64_t>(k);
      continue;
    }
    // Step 3.2: squeeze on log f(k)/f(m).
    v = std::log(v);
    const double rho =
        (km / npq) * (((km / 3.0 + 0.625) * km + 1.0 / 6.0) / npq + 0.5);
    const double t = -km * km / (2.0 * npq);
    if (v < t - rho) return static_cast<std::uint64_t>(k);
    if (v > t + rho) continue;
    // Steps 3.3-3.4: the exact log ratio, Stirling's formula plus its tails.
    const double nm = nd - m + 1.0;
    const double h = (m + 0.5) * std::log((m + 1.0) / (r * nm)) +
                     stirling_tail(m) + stirling_tail(nd - m);
    const double nk = nd - k + 1.0;
    if (v <= h + (nd + 1.0) * std::log(nm / nk) +
                 (k + 0.5) * std::log(nk * r / (k + 1.0)) - stirling_tail(k) -
                 stirling_tail(nd - k))
      return static_cast<std::uint64_t>(k);
  }
}

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  // Four consecutive splitmix64 outputs: never all zero, since splitmix64
  // maps distinct counters to distinct outputs.
  for (std::size_t i = 0; i < state_.size(); ++i)
    state_[i] = mix64(seed + i * 0x9E3779B97F4A7C15ULL);
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

Rng Rng::split(std::uint64_t tag) {
  // Fold the per-parent call counter into the derived seed so repeated
  // splits with an identical tag still yield distinct, well-separated child
  // streams (the pre-counter behaviour silently reused streams and forced
  // call sites into ad-hoc additive tag offsets to dodge collisions).
  const std::uint64_t call = split_count_++;
  std::uint64_t h = seed_;
  h = mix64(h ^ mix64(tag + 0x5851F42D4C957F2DULL));
  h = mix64(h ^ mix64(call + 0x2545F4914F6CDD1DULL));
  return Rng(h);
}

Rng Rng::split(std::string_view key) { return split(fnv1a64(key)); }

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1p-53; }

double Rng::uniform(double lo, double hi) {
  if (!(lo < hi)) throw std::invalid_argument("Rng::uniform: lo must be < hi");
  const double x = lo + (hi - lo) * uniform();
  // lo + (hi - lo) * u can round up to hi when u is within an ulp of 1.
  return x < hi ? x : std::nextafter(hi, lo);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo must be <= hi");
  // Work in offsets from lo, modulo 2^64. A span of 2^64 - 1 is the full
  // int64 range, where every raw draw is already uniform.
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  std::uint64_t offset = next();
  if (span != UINT64_MAX) {
    // Lemire's bounded multiply: the high word of x * range is uniform on
    // [0, range) once the low word clears the 2^64 mod range rejection zone.
    const std::uint64_t range = span + 1;
    std::uint64_t low = 0;
    mul_64x64(offset, range, offset, low);
    if (low < range) {
      const std::uint64_t threshold = (0 - range) % range;
      while (low < threshold) mul_64x64(next(), range, offset, low);
    }
  }
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + offset);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::normal(double mean, double sd) {
  if (sd < 0.0) throw std::invalid_argument("Rng::normal: sd must be >= 0");
  if (sd == 0.0) return mean;
  double u = 0.0, s = 0.0;
  do {
    u = 2.0 * uniform() - 1.0;
    const double v = 2.0 * uniform() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  return mean + sd * u * std::sqrt(-2.0 * std::log(s) / s);
}

double Rng::lognormal(double mu, double sigma) {
  if (sigma < 0.0) throw std::invalid_argument("Rng::lognormal: sigma >= 0");
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double rate) {
  if (rate <= 0.0) throw std::invalid_argument("Rng::exponential: rate > 0");
  return -std::log1p(-uniform()) / rate;
}

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  if (n == 0 || !(p > 0.0)) return 0;
  if (p >= 1.0) return n;
  // Sample the rarer outcome and flip, so both branches see p <= 0.5.
  const bool flip = p > 0.5;
  const double q = flip ? 1.0 - p : p;
  const std::uint64_t k = static_cast<double>(n) * q < 10.0
                              ? binomial_inversion(*this, n, q)
                              : binomial_btrd(*this, n, q);
  return flip ? n - k : k;
}
std::size_t Rng::categorical(std::span<const double> weights) {
  if (weights.empty())
    throw std::invalid_argument("Rng::categorical: empty weights");
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0 || !std::isfinite(w))
      throw std::invalid_argument("Rng::categorical: weights must be >= 0");
    total += w;
  }
  if (total <= 0.0)
    throw std::invalid_argument("Rng::categorical: all weights are zero");
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // numerical tail
}

std::size_t Rng::pick_index(std::size_t size) {
  if (size == 0) throw std::invalid_argument("Rng::pick_index: empty range");
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(size) - 1));
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  if (k > n)
    throw std::invalid_argument("sample_without_replacement: k must be <= n");
  std::vector<std::size_t> indices(n);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  // Partial Fisher-Yates: the first k slots end up a uniform k-subset.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j =
        i + pick_index(n - i);
    std::swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

}  // namespace vdbench::stats
