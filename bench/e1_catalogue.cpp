// E1 — the metric catalogue table ("a large set of metrics is gathered"):
// every metric with formula, family, range, optimisation direction and the
// two domain-critical structural attributes (prevalence invariance and the
// need for an imposed TN frame).
#include <cmath>

#include "core/metrics.h"
#include "experiments.h"
#include "report/table.h"
#include "study_common.h"

namespace vdbench::bench {

namespace {

void run(cli::ExperimentContext& ctx) {
  std::ostream& out = ctx.out;
  out << "E1: metric catalogue for vulnerability detection "
         "benchmarking ("
      << core::kMetricCount << " metrics)\n\n";
  const auto scope = ctx.timer.scope(stage::kCatalogue);
  report::Table table({"key", "name", "formula", "family", "range",
                       "better", "prev-invariant", "needs TN"});
  for (const core::MetricId id : core::all_metrics()) {
    const core::MetricInfo& m = core::metric_info(id);
    std::string range = "[";
    range.append(report::format_value(m.range_lo, 0))
        .append(", ")
        .append(std::isinf(m.range_hi) ? "inf"
                                       : report::format_value(m.range_hi, 0))
        .append("]");
    table.add_row({std::string(m.key), std::string(m.name),
                   std::string(m.formula),
                   std::string(core::category_name(m.category)), range,
                   std::string(core::direction_name(m.direction)),
                   m.prevalence_invariant ? "yes" : "no",
                   m.needs_tn ? "yes" : "no"});
  }
  table.print(out);

  std::size_t invariant = 0, needs_tn = 0;
  for (const core::MetricId id : core::all_metrics()) {
    invariant += core::metric_info(id).prevalence_invariant ? 1 : 0;
    needs_tn += core::metric_info(id).needs_tn ? 1 : 0;
  }
  out << "\n" << invariant << "/" << core::kMetricCount
      << " metrics are prevalence-invariant; " << needs_tn << "/"
      << core::kMetricCount
      << " require a true-negative frame, which vulnerability "
         "detection must impose artificially (candidate analysis "
         "sites).\n";
}

}  // namespace

void register_e1(cli::ExperimentRegistry& registry) {
  registry.add({"e1", "metric catalogue table",
                "catalogue{metrics=" + std::to_string(core::kMetricCount) +
                    "}",
                true, run});
}

}  // namespace vdbench::bench
