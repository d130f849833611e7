// End-to-end integration tests: run the full three-stage study (property
// assessment -> scenario effectiveness -> MCDA validation) at reduced trial
// counts and assert the DSN'15 paper's headline claims hold in vdbench.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/properties.h"
#include "core/scenario.h"
#include "core/selection.h"
#include "core/validation.h"
#include "vdsim/campaign.h"

namespace vdbench {
namespace {

using core::MetricId;

// Shared, lazily-built study state (expensive; built once per test run).
struct Study {
  std::vector<core::MetricAssessment> assessments;
  std::map<std::string, std::vector<core::EffectivenessResult>> effectiveness;
  std::map<std::string, core::ScenarioRecommendation> recommendations;

  static const Study& get() {
    static const Study study = [] {
      Study s;
      core::AssessmentConfig acfg;
      acfg.trials = 150;
      acfg.asymptotic_items = 200'000;
      const core::PropertyAssessor assessor(acfg);
      stats::Rng arng(1001);
      s.assessments = assessor.assess_all(arng);

      core::ScenarioAnalyzer::Config ecfg;
      ecfg.pair_trials = 900;
      const core::ScenarioAnalyzer analyzer(ecfg);
      const core::MetricSelector selector;
      const auto metrics = core::ranking_metrics();
      for (const core::Scenario& scenario : core::builtin_scenarios()) {
        stats::Rng erng = stats::Rng(2000).split(scenario.key);
        s.effectiveness[scenario.key] =
            analyzer.analyze(scenario, metrics, erng);
        s.recommendations[scenario.key] = selector.recommend(
            scenario, s.assessments, s.effectiveness.at(scenario.key));
      }
      return s;
    }();
    return study;
  }
};

bool in_top_k(const core::ScenarioRecommendation& rec, MetricId id,
              std::size_t k) {
  return rec.rank_of(id) < k;
}

double fidelity(const std::vector<core::EffectivenessResult>& results,
                MetricId id) {
  const auto it = std::find_if(
      results.begin(), results.end(),
      [&](const core::EffectivenessResult& r) { return r.metric == id; });
  EXPECT_NE(it, results.end());
  return it->ranking_fidelity;
}

TEST(HeadlineTest, EveryScenarioProducesFullRanking) {
  const Study& s = Study::get();
  for (const core::Scenario& scenario : core::builtin_scenarios()) {
    const auto& rec = s.recommendations.at(scenario.key);
    EXPECT_EQ(rec.ranked.size(), core::ranking_metrics().size());
    EXPECT_GT(rec.best().overall, 0.5) << scenario.key;
  }
}

TEST(HeadlineTest, RecallFamilyWinsMissCriticalScenario) {
  // S1: missing a vulnerability is catastrophic. Recall-oriented and
  // cost-weighted metrics must outrank precision-oriented ones.
  const Study& s = Study::get();
  const auto& eff = s.effectiveness.at("s1_critical");
  EXPECT_GT(fidelity(eff, MetricId::kRecall),
            fidelity(eff, MetricId::kPrecision));
  EXPECT_GT(fidelity(eff, MetricId::kF2), fidelity(eff, MetricId::kFHalf));
}

TEST(HeadlineTest, PrecisionFamilyWinsBudgetScenario) {
  const Study& s = Study::get();
  const auto& eff = s.effectiveness.at("s2_budget");
  EXPECT_GT(fidelity(eff, MetricId::kPrecision),
            fidelity(eff, MetricId::kRecall));
  EXPECT_GT(fidelity(eff, MetricId::kFHalf), fidelity(eff, MetricId::kF2));
}

TEST(HeadlineTest, TraditionalMetricsAdequateOnlySomewhere) {
  // The abstract's first half: precision and recall ARE adequate in some
  // scenario (top-8 of 30 somewhere)...
  const Study& s = Study::get();
  bool precision_good = false, recall_good = false;
  for (const auto& [key, rec] : s.recommendations) {
    precision_good |= in_top_k(rec, MetricId::kPrecision, 8);
    recall_good |= in_top_k(rec, MetricId::kRecall, 8);
  }
  EXPECT_TRUE(recall_good);
  EXPECT_TRUE(precision_good);
  // ...but neither is adequate everywhere.
  bool precision_everywhere = true, recall_everywhere = true;
  for (const auto& [key, rec] : s.recommendations) {
    precision_everywhere &= in_top_k(rec, MetricId::kPrecision, 8);
    recall_everywhere &= in_top_k(rec, MetricId::kRecall, 8);
  }
  EXPECT_FALSE(precision_everywhere);
  EXPECT_FALSE(recall_everywhere);
}

TEST(HeadlineTest, SeldomUsedMetricsWinSomeScenario) {
  // The abstract's second half: some scenarios require alternative
  // metrics seldom used in benchmarking (MCC, informedness, markedness,
  // cost-based). At least one scenario's best metric is from that set.
  const Study& s = Study::get();
  const std::vector<MetricId> seldom_used = {
      MetricId::kMcc,        MetricId::kInformedness,
      MetricId::kMarkedness, MetricId::kNormalizedExpectedCost,
      MetricId::kWeightedBalancedAccuracy, MetricId::kGMean};
  bool wins_somewhere = false;
  for (const auto& [key, rec] : s.recommendations) {
    if (std::find(seldom_used.begin(), seldom_used.end(),
                  rec.best().metric) != seldom_used.end())
      wins_somewhere = true;
  }
  EXPECT_TRUE(wins_somewhere);
}

TEST(HeadlineTest, AccuracyMisleadsInRareScenario) {
  // Under extreme imbalance, accuracy must be clearly worse at ordering
  // tools than prevalence-robust alternatives.
  const Study& s = Study::get();
  const auto& eff = s.effectiveness.at("s4_rare");
  EXPECT_GT(fidelity(eff, MetricId::kWeightedBalancedAccuracy),
            fidelity(eff, MetricId::kAccuracy));
  const auto& rec = s.recommendations.at("s4_rare");
  EXPECT_GT(rec.rank_of(MetricId::kAccuracy), 5u);
}

TEST(HeadlineTest, DifferentScenariosPickDifferentMetrics) {
  // The central claim: the adequate metric depends on the scenario.
  const Study& s = Study::get();
  std::vector<MetricId> winners;
  for (const auto& [key, rec] : s.recommendations)
    winners.push_back(rec.best().metric);
  std::sort(winners.begin(), winners.end());
  const auto unique_count =
      std::unique(winners.begin(), winners.end()) - winners.begin();
  EXPECT_GE(unique_count, 2);
}

TEST(McdaIntegrationTest, ValidationAgreesAcrossScenarios) {
  // Stage 3: the expert-driven MCDA ranking must correlate positively
  // with the analytical selection in every scenario (the paper's
  // "validate the conclusions" step).
  const Study& s = Study::get();
  core::ValidationConfig vcfg;
  vcfg.judgment_noise = 0.10;
  vcfg.persona_spread = 0.10;
  const core::McdaValidator validator(vcfg);
  for (const core::Scenario& scenario : core::builtin_scenarios()) {
    stats::Rng rng = stats::Rng(3000).split(scenario.key);
    const core::ValidationOutcome out = validator.validate(
        scenario, s.assessments, s.effectiveness.at(scenario.key), rng);
    EXPECT_GT(out.kendall_agreement, 0.2) << scenario.key;
    EXPECT_TRUE(out.ahp.acceptable()) << scenario.key;
  }
}

TEST(SimulatorIntegrationTest, CaseStudyRanksToolsSensibly) {
  // E5-style case study: on a balanced-cost workload the six builtin
  // tools must be ordered consistently with their designed quality by
  // robust metrics.
  vdsim::WorkloadSpec spec;
  spec.num_services = 300;
  spec.prevalence = 0.12;
  stats::Rng wrng(42);
  const vdsim::Workload workload = generate_workload(spec, wrng);
  stats::Rng rng(43);
  const auto results = run_benchmarks(vdsim::builtin_tools(), workload,
                                      vdsim::CostModel{}, rng);
  const auto order = vdsim::rank_tools_by_metric(results, MetricId::kMcc);
  // SA-Pro (index 0, quality .8) must beat SA-Community (index 1, .45).
  std::size_t pos_pro = 0, pos_community = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (results[order[i]].tool_name == "SA-Pro") pos_pro = i;
    if (results[order[i]].tool_name == "SA-Community") pos_community = i;
  }
  EXPECT_LT(pos_pro, pos_community);
}

TEST(SimulatorIntegrationTest, MetricChoiceChangesToolRanking) {
  // Two tools: sensitive-but-noisy vs quiet-but-blind. Recall and
  // precision must disagree on which is better — the concrete failure
  // mode that motivates scenario-aware metric selection.
  vdsim::WorkloadSpec spec;
  spec.num_services = 300;
  spec.prevalence = 0.10;
  stats::Rng wrng(44);
  const vdsim::Workload workload = generate_workload(spec, wrng);
  vdsim::ToolProfile sensitive = vdsim::make_archetype_profile(
      vdsim::ToolArchetype::kManualReview, 0.9, "sensitive");
  sensitive.sensitivity.fill(0.95);
  sensitive.fallout = 0.20;
  vdsim::ToolProfile quiet = vdsim::make_archetype_profile(
      vdsim::ToolArchetype::kManualReview, 0.9, "quiet");
  quiet.sensitivity.fill(0.45);
  quiet.fallout = 0.005;
  stats::Rng rng(45);
  const auto results = run_benchmarks({sensitive, quiet}, workload,
                                      vdsim::CostModel{}, rng);
  const auto by_recall =
      vdsim::rank_tools_by_metric(results, MetricId::kRecall);
  const auto by_precision =
      vdsim::rank_tools_by_metric(results, MetricId::kPrecision);
  EXPECT_EQ(by_recall.front(), 0u);
  EXPECT_EQ(by_precision.front(), 1u);
}

}  // namespace
}  // namespace vdbench
