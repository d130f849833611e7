// Benchmark campaign: the statistically sound end-to-end workflow a
// benchmark operator would run with vdbench —
//   1. pick the metric for the scenario (here: pre-picked from E7),
//   2. run every tool over repeated independent workloads,
//   3. report means with confidence intervals,
//   4. only claim "tool A beats tool B" when the difference is
//      significant.
//
//   $ ./benchmark_campaign [runs]
#include <cstdlib>
#include <iostream>

#include "report/table.h"
#include "vdsim/benchmark.h"
#include "vdsim/suite.h"

int main(int argc, char** argv) {
  using namespace vdbench;

  vdsim::SuiteConfig cfg;
  cfg.workload.num_services = 60;
  cfg.workload.prevalence = 0.12;
  cfg.runs = argc > 1 ? static_cast<std::size_t>(
                            std::strtoull(argv[1], nullptr, 10))
                      : 15;
  cfg.costs = vdsim::CostModel{20.0, 1.0};  // security-critical context

  // In the security-critical scenario the E7 analysis recommends the
  // cost-based metric; we carry F1 alongside for comparison.
  const std::vector<core::MetricId> metrics = {
      core::MetricId::kNormalizedExpectedCost, core::MetricId::kFMeasure};

  std::cout << "Campaign: " << cfg.runs << " independent workloads, "
            << cfg.workload.num_services
            << " services each, cost model FN:FP = 20:1\n\n";

  stats::Rng rng(2026);
  const vdsim::SuiteResult suite =
      run_suite(vdsim::builtin_tools(), metrics, cfg, rng);

  report::Table table({"tool", "NEC mean", "NEC 95% CI", "F1 mean"});
  for (const vdsim::ToolEstimates& tool : suite.tools) {
    const vdsim::MetricEstimate& nec =
        tool.metric(core::MetricId::kNormalizedExpectedCost);
    const vdsim::MetricEstimate& f1 =
        tool.metric(core::MetricId::kFMeasure);
    std::string interval = "[";
    interval.append(report::format_value(nec.ci.lower))
        .append(", ")
        .append(report::format_value(nec.ci.upper))
        .append("]");
    table.add_row({tool.tool_name, report::format_value(nec.ci.estimate),
                   interval, report::format_value(f1.ci.estimate)});
  }
  table.print(std::cout);

  std::cout << "\nDefensible claims (p < 0.05 on the scenario metric):\n";
  std::size_t claims = 0;
  for (const vdsim::PairwiseComparison& cmp : suite.comparisons) {
    if (cmp.metric != core::MetricId::kNormalizedExpectedCost) continue;
    if (!cmp.significant()) continue;
    // NEC is lower-better.
    const bool a_wins = cmp.mean_a < cmp.mean_b;
    std::cout << "  " << (a_wins ? cmp.tool_a : cmp.tool_b) << " beats "
              << (a_wins ? cmp.tool_b : cmp.tool_a)
              << " (p=" << report::format_value(cmp.welch.p_value, 4)
              << ")\n";
    ++claims;
  }
  if (claims == 0)
    std::cout << "  none — increase runs to resolve the remaining pairs\n";
  std::cout << "\nPairs not resolvable at " << cfg.runs << " runs:\n";
  for (const vdsim::PairwiseComparison& cmp : suite.comparisons) {
    if (cmp.metric != core::MetricId::kNormalizedExpectedCost) continue;
    if (cmp.significant()) continue;
    std::cout << "  " << cmp.tool_a << " vs " << cmp.tool_b
              << " (p=" << report::format_value(cmp.welch.p_value, 3)
              << ")\n";
  }

  // The same campaign through the capstone API: a self-describing
  // benchmark whose ranking carries compact-letter significance groups.
  std::cout << "\n--- capstone: execute_benchmark ---\n";
  vdsim::BenchmarkDefinition def;
  def.name = "security-critical web-services benchmark";
  def.primary_metric = core::MetricId::kNormalizedExpectedCost;
  def.secondary_metrics = {core::MetricId::kFMeasure};
  def.protocol = cfg;
  stats::Rng brng(2027);
  const vdsim::BenchmarkReport report =
      execute_benchmark(def, vdsim::builtin_tools(), brng);
  std::cout << report.render();
  return 0;
}
