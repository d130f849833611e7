// Shared full-size study configuration for the experiment registry.
//
// Every experiment regenerates one table/figure of the reconstructed
// DSN'15 evaluation (see DESIGN.md and EXPERIMENTS.md). The trial counts
// here are the "full-size" ones; the unit tests use reduced copies. The
// fingerprint helpers serialize these configurations for cache
// addressing — any change to a value here changes the fingerprint and
// therefore invalidates exactly the cached results it affects.
#pragma once

#include <string>
#include <vector>

#include "core/properties.h"
#include "core/scenario.h"
#include "core/selection.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "stats/rng.h"

namespace vdbench::bench {

/// Seed shared by all experiment binaries so printed artifacts are
/// reproducible run-to-run.
inline constexpr std::uint64_t kStudySeed = 20150622;  // DSN'15 first day

/// Full-size stage-1 configuration.
inline core::AssessmentConfig full_assessment_config() {
  core::AssessmentConfig cfg;
  cfg.trials = 400;
  cfg.benchmark_items = 500;
  cfg.asymptotic_items = 1'000'000;
  return cfg;
}

/// Full-size stage-2 configuration.
inline core::ScenarioAnalyzer::Config full_analyzer_config() {
  core::ScenarioAnalyzer::Config cfg;
  cfg.pair_trials = 2000;
  return cfg;
}

/// Cache fingerprint of the stage-1 configuration.
inline std::string stage1_fingerprint() {
  const core::AssessmentConfig cfg = full_assessment_config();
  std::string grid;
  for (const double p : cfg.prevalence_grid)
    grid += std::to_string(p) + ",";
  return "stage1{trials=" + std::to_string(cfg.trials) +
         ";items=" + std::to_string(cfg.benchmark_items) +
         ";prev=" + std::to_string(cfg.base_prevalence) +
         ";asymptotic=" + std::to_string(cfg.asymptotic_items) +
         ";grid=" + grid + "}";
}

/// Cache fingerprint of the stage-2 configuration.
inline std::string stage2_fingerprint() {
  const core::ScenarioAnalyzer::Config cfg = full_analyzer_config();
  return "stage2{pairs=" + std::to_string(cfg.pair_trials) +
         ";gap=" + std::to_string(cfg.min_relative_cost_gap) +
         ";resamples=" + std::to_string(cfg.max_resamples) + "}";
}

/// Run stage 1 for the whole catalogue.
inline std::vector<core::MetricAssessment> run_stage1() {
  const obs::Span span(obs::names::kStudyStage1);
  stats::Rng rng(kStudySeed);
  return core::PropertyAssessor(full_assessment_config()).assess_all(rng);
}

/// Run stage 2 for one scenario over all ranking metrics.
inline std::vector<core::EffectivenessResult> run_stage2(
    const core::Scenario& scenario) {
  const obs::Span span(obs::names::kStudyStage2, scenario.key);
  stats::Rng rng = stats::Rng(kStudySeed).split(scenario.key);
  return core::ScenarioAnalyzer(full_analyzer_config())
      .analyze(scenario, core::ranking_metrics(), rng);
}

}  // namespace vdbench::bench
