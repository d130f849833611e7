#include "core/study.h"

#include <stdexcept>

namespace vdbench::core {

void StudyConfig::validate() const {
  assessment.validate();
  validation.validate();
  // Analyzer/selector configs validate in their constructors.
  (void)ScenarioAnalyzer(analyzer);
  (void)MetricSelector(selector);
  for (const Scenario& s : scenarios) s.validate();
}

Study::Study(StudyConfig config) : config_(std::move(config)) {
  config_.validate();
  scenarios_ = config_.scenarios.empty()
                   ? std::vector<Scenario>(builtin_scenarios().begin(),
                                           builtin_scenarios().end())
                   : config_.scenarios;
  if (scenarios_.empty())
    throw std::invalid_argument("Study: no scenarios");
}

void Study::run() {
  assessments_.clear();
  effectiveness_.clear();
  recommendations_.clear();
  validations_.clear();

  stats::Rng master(config_.seed);

  stats::Rng assess_rng = master.split(1);
  assessments_ = PropertyAssessor(config_.assessment).assess_all(assess_rng);

  const ScenarioAnalyzer analyzer(config_.analyzer);
  const MetricSelector selector(config_.selector);
  const McdaValidator validator(config_.validation);
  const std::vector<MetricId> metrics = ranking_metrics();

  for (const Scenario& scenario : scenarios_) {
    stats::Rng scenario_rng =
        master.split(2).split(scenario.key);
    std::vector<EffectivenessResult> eff =
        analyzer.analyze(scenario, metrics, scenario_rng);
    recommendations_.emplace(scenario.key,
                             selector.recommend(scenario, assessments_, eff));
    stats::Rng validation_rng =
        master.split(3).split(scenario.key);
    validations_.emplace(scenario.key,
                         validator.validate(scenario, assessments_, eff,
                                            validation_rng));
    effectiveness_.emplace(scenario.key, std::move(eff));
  }
  has_run_ = true;
}

void Study::require_run() const {
  if (!has_run_)
    throw std::logic_error("Study: call run() before reading results");
}

const Scenario& Study::find_scenario(std::string_view key) const {
  for (const Scenario& s : scenarios_)
    if (s.key == key) return s;
  throw std::invalid_argument("Study: unknown scenario key: " +
                              std::string(key));
}

const std::vector<MetricAssessment>& Study::assessments() const {
  require_run();
  return assessments_;
}

const std::vector<EffectivenessResult>& Study::effectiveness(
    std::string_view scenario_key) const {
  require_run();
  find_scenario(scenario_key);
  return effectiveness_.find(scenario_key)->second;
}

const ScenarioRecommendation& Study::recommendation(
    std::string_view scenario_key) const {
  require_run();
  find_scenario(scenario_key);
  return recommendations_.find(scenario_key)->second;
}

const ValidationOutcome& Study::validation(
    std::string_view scenario_key) const {
  require_run();
  find_scenario(scenario_key);
  return validations_.find(scenario_key)->second;
}

bool Study::validated() const {
  require_run();
  for (const auto& [key, outcome] : validations_)
    if (!outcome.same_top || !outcome.ahp.acceptable()) return false;
  return true;
}

}  // namespace vdbench::core
