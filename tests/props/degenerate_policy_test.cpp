// Property sweep over the degenerate-input policy of core/metrics.h: on
// generated matrices biased toward zero-denominator corners, every metric
// value is NaN, +inf or inside its declared range, and the
// indeterminate-form vs unbounded-ratio distinction holds.
#include <gtest/gtest.h>

#include <cmath>

#include "core/metrics.h"
#include "support/propgen.h"

namespace vdbench::core {
namespace {

using testsupport::PropGen;

constexpr std::size_t kCases = 256;

EvalContext context_of(const ConfusionMatrix& cm) {
  EvalContext ctx;
  ctx.cm = cm;
  return ctx;
}

TEST(DegeneratePolicy, ValuesAreNanInfOrInDeclaredRange) {
  PropGen gen = PropGen::from_current_test();
  for (std::size_t i = 0; i < kCases; ++i) {
    const ConfusionMatrix cm = gen.degenerate_confusion();
    const EvalContext ctx = context_of(cm);
    for (const MetricId id : all_metrics()) {
      const double v = compute_metric(id, ctx);
      if (std::isnan(v)) continue;          // "no answer" is always legal
      const MetricInfo& info = metric_info(id);
      EXPECT_GE(v, info.range_lo - 1e-12) << info.key << " on "
                                          << cm.to_string();
      EXPECT_LE(v, info.range_hi + 1e-12) << info.key << " on "
                                          << cm.to_string();
      if (std::isinf(v)) {
        // Only the unbounded ratios may diverge, and only to +inf.
        EXPECT_GT(v, 0.0) << info.key << " on " << cm.to_string();
        EXPECT_TRUE(id == MetricId::kLrPlus || id == MetricId::kLrMinus ||
                    id == MetricId::kDiagnosticOddsRatio)
            << info.key << " unexpectedly infinite on " << cm.to_string();
      }
    }
  }
}

TEST(DegeneratePolicy, ZeroDenominatorRatesAreNanNotZero) {
  PropGen gen = PropGen::from_current_test();
  for (std::size_t i = 0; i < kCases; ++i) {
    ConfusionMatrix cm = gen.degenerate_confusion();
    // Rates over an empty class give no answer, never a fake 0 or 1.
    cm.tp = 0;
    cm.fn = 0;  // no actual positives
    const EvalContext ctx = context_of(cm);
    EXPECT_TRUE(std::isnan(compute_metric(MetricId::kRecall, ctx)))
        << cm.to_string();
    EXPECT_TRUE(std::isnan(compute_metric(MetricId::kFnRate, ctx)))
        << cm.to_string();
    cm = gen.degenerate_confusion();
    cm.fp = 0;
    cm.tn = 0;  // no actual negatives
    const EvalContext ctx2 = context_of(cm);
    EXPECT_TRUE(std::isnan(compute_metric(MetricId::kSpecificity, ctx2)))
        << cm.to_string();
    EXPECT_TRUE(std::isnan(compute_metric(MetricId::kFpRate, ctx2)))
        << cm.to_string();
  }
}

TEST(DegeneratePolicy, FFamilyIsZeroWhenPrecisionAndRecallAreBothZero) {
  PropGen gen = PropGen::from_current_test();
  for (std::size_t i = 0; i < kCases; ++i) {
    ConfusionMatrix cm = gen.degenerate_confusion();
    cm.tp = 0;
    cm.fp = 1 + cm.fp;  // at least one report, all wrong
    cm.fn = 1 + cm.fn;  // at least one missed vulnerability
    const EvalContext ctx = context_of(cm);
    for (const MetricId id :
         {MetricId::kFMeasure, MetricId::kFHalf, MetricId::kF2}) {
      EXPECT_EQ(compute_metric(id, ctx), 0.0)
          << metric_info(id).key << " on " << cm.to_string();
    }
  }
}

}  // namespace
}  // namespace vdbench::core
