// E11 (extension) — threshold-free tool comparison: ROC curves of the
// built-in tools as ranking detectors, AUC vs fixed-threshold metrics, and
// cost-optimal operating points per scenario. Not a table of the original
// paper; reconstructs its discussion that point metrics evaluate a tool at
// one threshold while the underlying detector has a whole curve.
#include "core/roc.h"
#include "experiments.h"
#include "report/chart.h"
#include "report/table.h"
#include "study_common.h"
#include "vdsim/campaign.h"

namespace vdbench::bench {

namespace {

void run(cli::ExperimentContext& ctx) {
  std::ostream& out = ctx.out;
  vdsim::WorkloadSpec spec;
  spec.num_services = 300;
  spec.prevalence = 0.10;
  stats::Rng wrng(kStudySeed);
  const vdsim::Workload workload = generate_workload(spec, wrng);

  out << "E11 (extension): ROC analysis of the built-in tools as "
         "ranking detectors\n("
      << workload.total_sites() << " candidate sites, "
      << workload.total_vulns() << " vulnerabilities)\n\n";

  report::Table table({"tool", "AUC", "TPR@FPR=1%", "TPR@FPR=5%",
                       "J* threshold", "cost* TPR (10:1)",
                       "cost* FPR (10:1)"});
  report::LineChart chart("E11 figure: ROC curves", "FPR", "TPR");
  chart.set_y_range(0.0, 1.0);

  for (const vdsim::ToolProfile& tool : vdsim::builtin_tools()) {
    const auto scope = ctx.timer.scope(stage::kRocSweep);
    stats::Rng rng = stats::Rng(kStudySeed + 11).split(tool.name);
    const core::RocCurve roc{vdsim::run_tool_scored(tool, workload, rng)};
    const core::RocPoint& jstar = roc.youden_point();
    const core::RocPoint& cstar = roc.optimal_point(10.0, 1.0);
    table.add_row({tool.name, report::format_value(roc.auc()),
                   report::format_value(roc.tpr_at_fpr(0.01)),
                   report::format_value(roc.tpr_at_fpr(0.05)),
                   report::format_value(jstar.threshold, 2),
                   report::format_value(cstar.tpr),
                   report::format_value(cstar.fpr)});
    report::Series s;
    s.name = tool.name;
    for (const core::RocPoint& p : roc.points()) {
      s.x.push_back(p.fpr);
      s.y.push_back(p.tpr);
    }
    chart.add_series(std::move(s));
  }
  table.print(out);
  out << "\n";
  chart.print(out);

  out << "\nShape check: AUC ranks the *detectors* irrespective of "
         "threshold; the 10:1 cost-optimal operating points sit at "
         "higher TPR/FPR than a cost-blind Youden choice would — the "
         "scenario cost model, not the curve alone, picks the "
         "threshold.\n";
}

}  // namespace

void register_e11(cli::ExperimentRegistry& registry) {
  registry.add({"e11", "ROC curves and cost-optimal operating points",
                "roc{services=300;prev=0.10;costs=10:1}", true, run});
}

}  // namespace vdbench::bench
