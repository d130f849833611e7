// Deterministic random-number utilities for vdbench.
//
// Every stochastic component in the library takes an explicit Rng so that
// workload generation, tool simulation and property assessment are exactly
// reproducible given a seed. Rng also supports cheap splitting into
// statistically independent child streams, which lets parallel or
// order-independent experiment code stay deterministic.
//
// Every draw is an algorithm written here, from the raw engine, so a stream
// is the same under any standard library: the engine is xoshiro256++ seeded
// through splitmix64, and no standard-library distribution class is used.
// Only the libm functions (exp, log, log1p, sqrt, pow) come from the
// platform.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

namespace vdbench::stats {

/// Deterministic pseudo-random generator (xoshiro256++, 32 bytes of state)
/// with a convenience API used across the library.
class Rng {
 public:
  /// Construct from a 64-bit seed. Identical seeds yield identical streams.
  explicit Rng(std::uint64_t seed);

  /// Seed used to construct this generator.
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Derive an independent child stream. The child seed mixes the parent
  /// seed, the tag and a per-parent split counter, so children are
  /// independent of each other (even when tags collide across successive
  /// calls), of the parent's future output, and of children split from other
  /// parents. Contract: given the same parent seed and the same *sequence*
  /// of split calls, the derived children are identical — splitting is
  /// deterministic per call sequence, not per tag. Splitting never advances
  /// the parent's engine, so draws interleaved with splits are unaffected.
  [[nodiscard]] Rng split(std::uint64_t tag);

  /// split() with the tag taken from the 64-bit FNV-1a of `key`, so
  /// string-keyed streams (scenario keys, tool names) do not depend on the
  /// standard library's std::hash.
  [[nodiscard]] Rng split(std::string_view key);

  /// Number of times split() has been called on this generator.
  [[nodiscard]] std::uint64_t split_count() const noexcept {
    return split_count_;
  }

  /// Uniform double in [0, 1) on the 2^-53 grid: one engine draw.
  double uniform();

  /// Uniform double in [lo, hi); never returns hi. Requires lo < hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive (Lemire's bounded multiply, so
  /// exactly unbiased). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]): one
  /// draw, uniform() < p.
  bool bernoulli(double p);

  /// Normal draw with the given mean and standard deviation (sd >= 0), by
  /// the Marsaglia polar method; one variate per call, nothing cached.
  double normal(double mean, double sd);

  /// Log-normal draw: exp(Normal(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Exponential draw with the given rate (> 0): -log1p(-u) / rate.
  double exponential(double rate);

  /// Binomial draw: number of successes in n trials of probability p
  /// (clamped to [0,1]). Exact and O(1) expected time: inversion when
  /// n*min(p, 1-p) < 10, Hörmann's BTRD otherwise. Neither calls libm's
  /// log-gamma, whose global signgam makes it unsafe on worker threads.
  std::uint64_t binomial(std::uint64_t n, double p);

  /// Index into a non-empty discrete distribution given by non-negative
  /// weights (not necessarily normalised). Throws if all weights are zero.
  std::size_t categorical(std::span<const double> weights);

  /// Uniformly pick an element index of a container of the given size (> 0).
  std::size_t pick_index(std::size_t size);

  /// Fisher-Yates shuffle of a vector in place.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    if (items.size() < 2) return;
    for (std::size_t i = items.size() - 1; i > 0; --i) {
      const std::size_t j = pick_index(i + 1);
      using std::swap;
      swap(items[i], items[j]);
    }
  }

  /// Sample k distinct indices from [0, n) without replacement (k <= n).
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

 private:
  /// Next raw 64-bit output of the xoshiro256++ engine.
  std::uint64_t next() noexcept;

  std::array<std::uint64_t, 4> state_{};
  std::uint64_t seed_;
  std::uint64_t split_count_ = 0;
};

}  // namespace vdbench::stats
