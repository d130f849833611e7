// E12 (extension) — micro vs macro aggregation across workloads: the same
// tool and metric can yield different aggregate values (and two tools can
// swap order) depending on how per-workload results are combined. A
// benchmarking-methodology hazard the metric-selection study implies but a
// single-workload experiment cannot show.
#include "core/aggregation.h"
#include "experiments.h"
#include "report/table.h"
#include "study_common.h"
#include "vdsim/runner.h"

namespace vdbench::bench {

namespace {

constexpr int kWorkloads = 8;

void run(cli::ExperimentContext& ctx) {
  std::ostream& out = ctx.out;
  // A heterogeneous campaign: many small services, a few huge ones.
  std::vector<vdsim::Workload> workloads;
  for (int i = 0; i < kWorkloads; ++i) {
    const auto scope = ctx.timer.scope(stage::kGenerateWorkloads);
    vdsim::WorkloadSpec spec;
    spec.num_services = 15;
    spec.prevalence = 0.12;
    spec.kloc_log_mean = i < 6 ? 0.3 : 3.0;  // two giant workloads
    stats::Rng rng = stats::Rng(kStudySeed + 12).split(i);
    workloads.push_back(generate_workload(spec, rng));
  }

  out << "E12 (extension): micro vs macro aggregation over "
      << workloads.size() << " heterogeneous workloads\n"
      << "(6 small + 2 large; per-workload sites from "
      << workloads.front().total_sites() << " to "
      << workloads.back().total_sites() << ")\n\n";

  const std::vector<core::MetricId> metrics = {
      core::MetricId::kPrecision, core::MetricId::kRecall,
      core::MetricId::kFMeasure, core::MetricId::kMcc,
      core::MetricId::kAccuracy};

  for (const vdsim::ToolProfile& tool :
       {vdsim::make_archetype_profile(vdsim::ToolArchetype::kStaticAnalyzer,
                                      0.75, "SA-Pro"),
        vdsim::make_archetype_profile(
            vdsim::ToolArchetype::kPenetrationTester, 0.65, "PT-Suite")}) {
    std::vector<core::EvalContext> contexts;
    const auto scope = ctx.timer.scope(stage::kBenchmarkAggregate);
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      stats::Rng rng =
          stats::Rng(kStudySeed + 13).split(tool.name).split(i);
      contexts.push_back(
          run_benchmark(tool, workloads[i], vdsim::CostModel{10.0, 1.0}, rng)
              .context);
    }
    out << "tool: " << tool.name << "\n";
    report::Table table({"metric", "micro", "macro", "|micro-macro|",
                         "per-workload sd", "undefined workloads"});
    for (const core::MetricId id : metrics) {
      const core::AggregateComparison cmp =
          core::compare_aggregates(id, contexts);
      table.add_row({std::string(core::metric_info(id).key),
                     report::format_value(cmp.micro),
                     report::format_value(cmp.macro),
                     report::format_value(std::abs(cmp.micro - cmp.macro)),
                     report::format_value(cmp.per_workload_stddev),
                     std::to_string(cmp.undefined_workloads)});
    }
    table.print(out);
    out << "\n";
  }

  out << "Shape check: micro and macro agree when workloads are "
         "homogeneous and split apart here because the two giant "
         "workloads dominate the pooled counts; benchmark reports "
         "must state which aggregation they use.\n";
}

}  // namespace

void register_e12(cli::ExperimentRegistry& registry) {
  registry.add({"e12", "micro vs macro aggregation hazard",
                "aggregation{workloads=" + std::to_string(kWorkloads) +
                    ";services=15;prev=0.12;costs=10:1}",
                true, run});
}

}  // namespace vdbench::bench
