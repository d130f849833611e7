// Minimal property-based test generator (header-only, no new deps).
//
// Each test derives its own deterministic random stream by seeding a
// splitmix64 generator from the current gtest suite + test name, so:
//  * failures reproduce exactly on re-run (no time-based seeds), and
//  * adding a case to one test never shifts the stream of another.
// On failure, gtest prints the offending generated value via the usual
// assertion message — include `cm.to_string()` (or equivalent) in every
// property assertion so the counterexample is visible.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "core/confusion.h"
#include "stats/fnv.h"

namespace vdbench::testsupport {

/// Deterministic generator for randomized property tests.
class PropGen {
 public:
  explicit PropGen(std::uint64_t seed) : state_(seed) {}

  /// Seeded from "SuiteName.TestName" of the currently running test.
  static PropGen from_current_test() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "propgen";
    if (info != nullptr)
      name = std::string(info->test_suite_name()) + "." + info->name();
    return PropGen(stats::fnv1a64(name));
  }

  /// splitmix64 step: uniform 64-bit output, passes statistical tests and
  /// never has a zero-length cycle regardless of seed.
  std::uint64_t next_u64() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [0, bound] (bound inclusive, small biases are
  /// irrelevant for property generation).
  std::uint64_t below(std::uint64_t bound) {
    return bound == 0 ? 0 : next_u64() % (bound + 1);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Random confusion matrix with cells in [0, cell_max]. One case in four
  /// zeroes a random cell so degenerate denominators (empty positive class,
  /// no reports, ...) are exercised, not just the bulk of the space.
  core::ConfusionMatrix confusion(std::uint64_t cell_max = 400) {
    core::ConfusionMatrix cm;
    cm.tp = below(cell_max);
    cm.fp = below(cell_max);
    cm.tn = below(cell_max);
    cm.fn = below(cell_max);
    if (below(3) == 0) {
      switch (below(3)) {
        case 0: cm.tp = 0; break;
        case 1: cm.fp = 0; break;
        case 2: cm.tn = 0; break;
        default: cm.fn = 0; break;
      }
    }
    return cm;
  }

  /// Aggressively degenerate matrix: on top of confusion()'s quarter-rate
  /// single-cell zeroing, half the time zero out 1-3 cells more.
  core::ConfusionMatrix degenerate_confusion(std::uint64_t cell_max = 40) {
    core::ConfusionMatrix cm = confusion(cell_max);
    if (below(1) == 0) {
      const std::uint64_t zeros = 1 + below(2);
      for (std::uint64_t z = 0; z < zeros; ++z) {
        switch (below(3)) {
          case 0: cm.tp = 0; break;
          case 1: cm.fp = 0; break;
          case 2: cm.tn = 0; break;
          default: cm.fn = 0; break;
        }
      }
    }
    return cm;
  }

 private:
  std::uint64_t state_;
};

}  // namespace vdbench::testsupport
