// E10 — performance microbenchmarks (google-benchmark). Not a paper
// artifact: these measure the library's own hot paths so regressions in
// the experiment harness are visible. Registered with the driver as a
// NON-cacheable experiment — wall-clock measurements are inherently
// unrepeatable, so e10 always runs fresh and is excluded from
// `--experiments all` (request it explicitly: `vdbench --experiments e10`).
#include <benchmark/benchmark.h>

#include <array>

#include "core/properties.h"
#include "core/sampling.h"
#include "core/validation.h"
#include "core/roc.h"
#include "experiments.h"
#include "mcda/expert.h"
#include "vdsim/campaign.h"
#include "vdsim/combine.h"

namespace {

using namespace vdbench;

void BM_ComputeAllMetrics(benchmark::State& state) {
  const core::EvalContext ctx = core::make_abstract_context(
      core::ConfusionMatrix{.tp = 40, .fp = 10, .tn = 930, .fn = 20}, 5.0,
      1.0);
  std::array<double, core::kMetricCount> out{};
  for (auto _ : state) {
    core::compute_all_metrics(ctx, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(core::kMetricCount));
}
BENCHMARK(BM_ComputeAllMetrics);

void BM_SampleConfusion(benchmark::State& state) {
  stats::Rng rng(1);
  const core::DetectorProfile d{0.7, 0.1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::sample_confusion(d, 0.1, static_cast<std::uint64_t>(
                                           state.range(0)), rng));
  }
}
BENCHMARK(BM_SampleConfusion)->Arg(500)->Arg(20000);

void BM_AhpPriorities(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> weights(n);
  for (std::size_t i = 0; i < n; ++i)
    weights[i] = 1.0 / static_cast<double>(i + 1);
  const mcda::ComparisonMatrix cm =
      mcda::ComparisonMatrix::from_priorities(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mcda::ahp_priorities(cm));
  }
}
BENCHMARK(BM_AhpPriorities)->Arg(5)->Arg(10)->Arg(15);

void BM_GenerateWorkload(benchmark::State& state) {
  vdsim::WorkloadSpec spec;
  spec.num_services = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    stats::Rng rng(++seed);
    benchmark::DoNotOptimize(vdsim::generate_workload(spec, rng));
  }
}
BENCHMARK(BM_GenerateWorkload)->Arg(50)->Arg(400);

void BM_RunToolOnWorkload(benchmark::State& state) {
  vdsim::WorkloadSpec spec;
  spec.num_services = 200;
  stats::Rng wrng(7);
  const vdsim::Workload workload = vdsim::generate_workload(spec, wrng);
  const vdsim::ToolProfile tool = vdsim::builtin_tools().front();
  std::uint64_t seed = 0;
  for (auto _ : state) {
    stats::Rng rng(++seed);
    benchmark::DoNotOptimize(vdsim::run_tool(tool, workload, rng));
  }
}
BENCHMARK(BM_RunToolOnWorkload);

void BM_EvaluateReport(benchmark::State& state) {
  vdsim::WorkloadSpec spec;
  spec.num_services = 200;
  stats::Rng wrng(8);
  const vdsim::Workload workload = vdsim::generate_workload(spec, wrng);
  stats::Rng trng(9);
  const vdsim::ToolReport report =
      vdsim::run_tool(vdsim::builtin_tools().front(), workload, trng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vdsim::evaluate_report(report, workload, vdsim::CostModel{}));
  }
}
BENCHMARK(BM_EvaluateReport);

void BM_ExpertPanelJudgment(benchmark::State& state) {
  const std::vector<double> latent = {0.25, 0.2, 0.15, 0.12, 0.1,
                                      0.08, 0.05, 0.03, 0.02};
  stats::Rng prng(10);
  const mcda::ExpertPanel panel = mcda::make_panel(latent, 7, 0.2, 0.15, prng);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    stats::Rng rng(++seed);
    benchmark::DoNotOptimize(panel.aggregate_judgments(rng));
  }
}
BENCHMARK(BM_ExpertPanelJudgment);

void BM_RocCurveBuild(benchmark::State& state) {
  stats::Rng rng(11);
  std::vector<core::ScoredItem> items;
  const auto n = static_cast<std::size_t>(state.range(0));
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const bool positive = rng.bernoulli(0.2);
    items.push_back({rng.normal(positive ? 1.0 : 0.0, 1.0), positive});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::RocCurve{items});
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_RocCurveBuild)->Arg(1000)->Arg(20000);

void BM_CombineReports(benchmark::State& state) {
  vdsim::WorkloadSpec spec;
  spec.num_services = 200;
  stats::Rng wrng(12);
  const vdsim::Workload workload = vdsim::generate_workload(spec, wrng);
  stats::Rng r1(13), r2(14);
  const std::vector<vdsim::ToolReport> reports = {
      vdsim::run_tool(vdsim::builtin_tools()[0], workload, r1),
      vdsim::run_tool(vdsim::builtin_tools()[2], workload, r2)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(vdsim::combine_reports(reports, "a+b"));
  }
}
BENCHMARK(BM_CombineReports);

void BM_PropertyAssessOneMetric(benchmark::State& state) {
  core::AssessmentConfig cfg;
  cfg.trials = 50;
  cfg.asymptotic_items = 100'000;
  const core::PropertyAssessor assessor(cfg);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    stats::Rng rng(++seed);
    benchmark::DoNotOptimize(assessor.assess(core::MetricId::kMcc, rng));
  }
}
BENCHMARK(BM_PropertyAssessOneMetric);

}  // namespace

namespace vdbench::bench {

namespace {

void run(cli::ExperimentContext& ctx) {
  const auto scope = ctx.timer.scope(stage::kMicrobenchmarks);
  int argc = 1;
  char arg0[] = "vdbench-e10";
  char* argv[] = {arg0, nullptr};
  benchmark::Initialize(&argc, argv);
  benchmark::ConsoleReporter reporter(benchmark::ConsoleReporter::OO_None);
  reporter.SetOutputStream(&ctx.out);
  reporter.SetErrorStream(&ctx.out);
  benchmark::RunSpecifiedBenchmarks(&reporter);
}

}  // namespace

void register_e10(cli::ExperimentRegistry& registry) {
  registry.add({"e10", "library hot-path microbenchmarks (google-benchmark)",
                "perf{wall-clock}", /*cacheable=*/false, run});
}

}  // namespace vdbench::bench
