// Differential oracle for the metric catalogue. ReferenceConfusion below
// writes every confusion-derived metric straight from its textbook formula
// over double counts, independently of core/metrics.cpp, and the tests
// check core::compute_metric against it over the propgen random grid, the
// propgen degenerate grid and hand-picked degenerate corners.
//
// IEEE division already yields the policy of core/metrics.h almost
// everywhere: an empty denominator with an empty numerator is 0/0 = NaN,
// and a positive numerator over zero is +inf. The one place where the
// policy departs from plain arithmetic is marked "Policy:" below.
//
// Agreement means: NaN exactly where the reference is NaN, the same
// infinity exactly where it is infinite, and otherwise a relative error of
// at most 1e-12. Differences below 1e-15, a few ulps of 1.0, also agree:
// kappa, informedness and markedness subtract unit-scale terms, so where
// the true value is 0 one side may land a rounding error away from it
// (compute_metric gives kappa -2.6e-16 on TP=27 FP=18 TN=2 FN=3, where
// TP*TN == FP*FN makes the count form below exactly 0). Published papers
// define several of these metrics in different variants, so an
// independent check pins the one vdbench uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/sampling.h"
#include "support/propgen.h"

namespace vdbench::core {
namespace {

using testsupport::PropGen;

constexpr std::size_t kCases = 1024;
constexpr double kMaxRelativeError = 1e-12;
constexpr double kCancellationFloor = 1e-15;

class ReferenceConfusion {
 public:
  ReferenceConfusion(const ConfusionMatrix& cm, double cost_fn,
                     double cost_fp)
      : tp_(static_cast<double>(cm.tp)),
        fp_(static_cast<double>(cm.fp)),
        tn_(static_cast<double>(cm.tn)),
        fn_(static_cast<double>(cm.fn)),
        cost_fn_(cost_fn),
        cost_fp_(cost_fp) {}

  double total() const { return tp_ + fp_ + tn_ + fn_; }

  double true_positive_rate() const { return tp_ / (tp_ + fn_); }
  double true_negative_rate() const { return tn_ / (tn_ + fp_); }
  double false_positive_rate() const { return fp_ / (fp_ + tn_); }
  double false_negative_rate() const { return fn_ / (fn_ + tp_); }
  double positive_predictive_value() const { return tp_ / (tp_ + fp_); }
  double negative_predictive_value() const { return tn_ / (tn_ + fn_); }
  double false_discovery_rate() const { return fp_ / (fp_ + tp_); }
  double false_omission_rate() const { return fn_ / (fn_ + tn_); }

  double f_beta(double beta) const {
    // Policy: an F-score needs both precision and recall, so it has no
    // answer when either rate has an empty denominator. With both defined,
    // the count form below gives 0 when the tool found nothing right.
    if (tp_ + fp_ == 0.0 || tp_ + fn_ == 0.0) return std::nan("");
    const double b2 = beta * beta;
    return (1.0 + b2) * tp_ / ((1.0 + b2) * tp_ + b2 * fn_ + fp_);
  }
  double jaccard() const { return tp_ / (tp_ + fp_ + fn_); }
  double fowlkes_mallows() const {
    return tp_ / std::sqrt((tp_ + fp_) * (tp_ + fn_));
  }
  double positive_likelihood_ratio() const {
    return tp_ * (fp_ + tn_) / (fp_ * (tp_ + fn_));
  }
  double negative_likelihood_ratio() const {
    return fn_ * (tn_ + fp_) / (tn_ * (tp_ + fn_));
  }
  double diagnostic_odds_ratio() const { return tp_ * tn_ / (fp_ * fn_); }
  double prevalence_threshold() const {
    const double tpr = true_positive_rate();
    const double fpr = false_positive_rate();
    return std::sqrt(fpr) / (std::sqrt(tpr) + std::sqrt(fpr));
  }

  double accuracy() const { return (tp_ + tn_) / total(); }
  double error_rate() const { return (fp_ + fn_) / total(); }
  double balanced_accuracy() const {
    return (true_positive_rate() + true_negative_rate()) / 2.0;
  }
  double g_mean() const {
    return std::sqrt(true_positive_rate() * true_negative_rate());
  }
  double matthews() const {
    return (tp_ * tn_ - fp_ * fn_) /
           std::sqrt((tp_ + fp_) * (tp_ + fn_) * (tn_ + fp_) * (tn_ + fn_));
  }
  double informedness() const {
    return true_positive_rate() + true_negative_rate() - 1.0;
  }
  double markedness() const {
    return positive_predictive_value() + negative_predictive_value() - 1.0;
  }
  double cohen_kappa() const {
    return 2.0 * (tp_ * tn_ - fn_ * fp_) /
           ((tp_ + fp_) * (fp_ + tn_) + (tp_ + fn_) * (fn_ + tn_));
  }
  double normalized_expected_cost() const {
    return (cost_fp_ * fp_ + cost_fn_ * fn_) /
           (cost_fp_ * (fp_ + tn_) + cost_fn_ * (tp_ + fn_));
  }
  double weighted_balanced_accuracy() const {
    const double w = cost_fn_ / (cost_fn_ + cost_fp_);
    return w * true_positive_rate() + (1.0 - w) * true_negative_rate();
  }
  double prevalence() const { return (tp_ + fn_) / total(); }

 private:
  double tp_, fp_, tn_, fn_;
  double cost_fn_, cost_fp_;
};

/// The reference value of `id`, or nullopt for the metrics that are not
/// derived from the confusion counts: AUC is passed through from the
/// context, and the operational family divides measured time and size.
std::optional<double> reference_metric(MetricId id, const EvalContext& ctx) {
  const ReferenceConfusion ref(ctx.cm, ctx.cost_fn, ctx.cost_fp);
  switch (id) {
    case MetricId::kPrecision: return ref.positive_predictive_value();
    case MetricId::kRecall: return ref.true_positive_rate();
    case MetricId::kFMeasure: return ref.f_beta(1.0);
    case MetricId::kFHalf: return ref.f_beta(0.5);
    case MetricId::kF2: return ref.f_beta(2.0);
    case MetricId::kJaccard: return ref.jaccard();
    case MetricId::kFowlkesMallows: return ref.fowlkes_mallows();
    case MetricId::kSpecificity: return ref.true_negative_rate();
    case MetricId::kNpv: return ref.negative_predictive_value();
    case MetricId::kFpRate: return ref.false_positive_rate();
    case MetricId::kFnRate: return ref.false_negative_rate();
    case MetricId::kFdRate: return ref.false_discovery_rate();
    case MetricId::kFoRate: return ref.false_omission_rate();
    case MetricId::kLrPlus: return ref.positive_likelihood_ratio();
    case MetricId::kLrMinus: return ref.negative_likelihood_ratio();
    case MetricId::kDiagnosticOddsRatio: return ref.diagnostic_odds_ratio();
    case MetricId::kPrevalenceThreshold: return ref.prevalence_threshold();
    case MetricId::kAccuracy: return ref.accuracy();
    case MetricId::kErrorRate: return ref.error_rate();
    case MetricId::kBalancedAccuracy: return ref.balanced_accuracy();
    case MetricId::kGMean: return ref.g_mean();
    case MetricId::kMcc: return ref.matthews();
    case MetricId::kInformedness: return ref.informedness();
    case MetricId::kMarkedness: return ref.markedness();
    case MetricId::kKappa: return ref.cohen_kappa();
    case MetricId::kNormalizedExpectedCost:
      return ref.normalized_expected_cost();
    case MetricId::kWeightedBalancedAccuracy:
      return ref.weighted_balanced_accuracy();
    case MetricId::kPrevalence: return ref.prevalence();
    case MetricId::kAuc:
    case MetricId::kAlarmDensity:
    case MetricId::kAnalysisThroughput:
    case MetricId::kTimePerDetection:
      return std::nullopt;
  }
  return std::nullopt;
}

bool agree(double a, double b) {
  const double diff = std::abs(a - b);
  return diff <= kCancellationFloor ||
         diff <= kMaxRelativeError * std::max(std::abs(a), std::abs(b));
}

void expect_agrees_with_reference(const EvalContext& ctx) {
  for (const MetricId id : all_metrics()) {
    const std::optional<double> want = reference_metric(id, ctx);
    if (!want) continue;
    const double got = compute_metric(id, ctx);
    const std::string where = std::string(metric_info(id).key) + " on " +
                              ctx.cm.to_string() + " costs " +
                              std::to_string(ctx.cost_fn) + "/" +
                              std::to_string(ctx.cost_fp);
    if (std::isnan(*want)) {
      EXPECT_TRUE(std::isnan(got)) << where << ": got " << got
                                   << ", reference has no answer";
    } else if (std::isinf(*want)) {
      EXPECT_EQ(got, *want) << where;
    } else {
      EXPECT_TRUE(std::isfinite(got)) << where << ": got " << got
                                      << ", reference " << *want;
      EXPECT_TRUE(agree(got, *want))
          << where << ": got " << got << ", reference " << *want;
    }
  }
}

TEST(MetricOracle, CoversEveryConfusionDerivedMetric) {
  std::vector<MetricId> uncovered;
  for (const MetricId id : all_metrics())
    if (!reference_metric(id, EvalContext{})) uncovered.push_back(id);
  EXPECT_EQ(uncovered,
            (std::vector<MetricId>{MetricId::kAuc, MetricId::kAlarmDensity,
                                   MetricId::kAnalysisThroughput,
                                   MetricId::kTimePerDetection}));
}

TEST(MetricOracle, AgreesWithComputeMetricOnRandomGrid) {
  PropGen gen = PropGen::from_current_test();
  for (std::size_t i = 0; i < kCases; ++i) {
    const double cost_fn = gen.below(3) == 0 ? 1.0 : gen.uniform(0.1, 20.0);
    const double cost_fp = gen.below(3) == 0 ? 1.0 : gen.uniform(0.1, 20.0);
    expect_agrees_with_reference(
        make_abstract_context(gen.confusion(), cost_fn, cost_fp));
  }
}

TEST(MetricOracle, AgreesWithComputeMetricOnDegenerateGrid) {
  PropGen gen = PropGen::from_current_test();
  for (std::size_t i = 0; i < kCases; ++i) {
    EvalContext ctx;
    ctx.cm = gen.degenerate_confusion();
    expect_agrees_with_reference(ctx);
  }
}

// Every zero-denominator family in the policy table of core/metrics.h.
TEST(MetricOracle, AgreesWithComputeMetricOnDegenerateCorners) {
  const std::vector<ConfusionMatrix> corners = {
      {0, 0, 0, 0},  // empty matrix
      {1, 0, 0, 0},  // single-cell corners
      {0, 1, 0, 0},  {0, 0, 1, 0}, {0, 0, 0, 1},
      {5, 0, 5, 0},  // perfect detector
      {0, 5, 0, 5},  // perfectly wrong
      {5, 5, 0, 0},  // everything flagged
      {0, 0, 5, 5},  // nothing flagged
      {5, 0, 0, 5},  // no negatives answered
      {0, 5, 5, 0},  // no positives answered
      {3, 0, 7, 2},  // FPR == 0 < TPR: LR+ = +inf
      {3, 4, 0, 2},  // TNR == 0 < FNR: LR- = +inf
      {3, 4, 0, 0},  // TNR == FNR == 0: LR- = NaN
      {5, 0, 5, 1},  // FP == 0: DOR = +inf
      {5, 1, 5, 0},  // FN == 0: DOR = +inf
  };
  for (const ConfusionMatrix& cm : corners) {
    expect_agrees_with_reference(make_abstract_context(cm, 1.0, 1.0));
    expect_agrees_with_reference(make_abstract_context(cm, 5.0, 1.0));
    // An all-zero cost model leaves NEC with a 0/0 worst case.
    expect_agrees_with_reference(make_abstract_context(cm, 0.0, 0.0));
  }
}

TEST(MetricOracle, AgreesWithComputeMetricAtBillionCountScale) {
  constexpr std::uint64_t kBillion = 3'000'000'000ULL;  // > 2^31
  expect_agrees_with_reference(make_abstract_context(
      {kBillion, kBillion / 3, kBillion, kBillion / 3}, 5.0, 1.0));
  expect_agrees_with_reference(make_abstract_context(
      {kBillion, kBillion, kBillion, kBillion}, 1.0, 1.0));
}

}  // namespace
}  // namespace vdbench::core
