// sarif_intake: score one large external SARIF report against its
// ground-truth manifest — `vdbench --experiments e19 --sarif-report R
// --ground-truth M --no-cache` as cli::run_driver. Set-up writes a seeded
// synthetic four-ecosystem corpus (corpus::synthesize_* / render_*); the
// program sees only the two files. JSON parsing of one huge document and
// the matcher do the work; the study's compute layers sit idle.
#include <algorithm>
#include <sstream>

#include "common.h"
#include "corpus/intake.h"
#include "corpus/synthetic.h"
#include "experiments.h"
#include "obs/trace.h"
#include "report/json_reader.h"
#include "stream/report_log.h"
#include "vdsim/tool.h"

namespace vdbench::perfbench {
namespace {

constexpr int kSetupRepeats = 5;
constexpr std::size_t kChunkSites = 512;
constexpr const char* kTruthPath = "truth.json";
constexpr const char* kReportPath = "report.sarif";

/// Four ecosystems with the prevalences and CWE mixes E19 uses; the seed
/// draws every site and finding, the shape stays fixed across seeds.
corpus::SyntheticCorpusSpec corpus_spec(std::uint64_t seed, bool tiny) {
  const std::uint32_t sites = tiny ? 500 : 62'500;
  corpus::SyntheticCorpusSpec spec;
  spec.name = "intake";
  spec.seed = seed;
  spec.ecosystems = {
      {"php-web", sites, 0.15, {4, 3, 2, 2, 0, 0, 0, 1}},
      {"node-web", sites, 0.06, {2, 5, 1, 2, 0, 0, 0, 2}},
      {"embedded-c", sites, 0.03, {0, 0, 1, 1, 5, 3, 2, 0}},
      {"kernel-mods", sites, 0.01, {0, 0, 0, 0, 4, 3, 5, 0}},
  };
  return spec;
}

/// Write the manifest and one simulated tool's SARIF report.
void write_corpus(const corpus::SyntheticCorpusSpec& spec) {
  const corpus::Manifest manifest = corpus::synthesize_manifest(spec);
  write_file(kTruthPath, corpus::render_manifest(manifest));
  const vdsim::ToolProfile tool = vdsim::builtin_tools().front();
  write_file(kReportPath, corpus::render_sarif_report(
                              corpus::synthesize_report(spec, manifest, tool)));
}

/// Score the files without the driver; returns the expected report lines.
std::vector<std::string> score_independently(Result& result) {
  const corpus::Manifest truth = corpus::read_manifest_file(kTruthPath);
  const corpus::SarifReport report = corpus::read_sarif_file(kReportPath);
  const corpus::MatchResult match = corpus::match_findings(truth, report);
  core::ConfusionMatrix direct;
  core::ConfusionMatrix streamed;
  {
    const obs::Span direct_span(span::kEvaluateDirect);
    direct = corpus::evaluate_direct(match.records);
  }
  {
    const obs::Span streamed_span(span::kEvaluateStreamed);
    streamed = corpus::evaluate_streamed(match.records, kChunkSites);
  }
  OpCheck check;
  std::vector<std::string> lines =
      check_scoring(check, truth, report, match, direct, streamed);
  check.commit(result);
  return lines;
}

struct Intake {
  cli::RunOutcome outcome;
  std::string text;
  double seconds = 0.0;
};

Intake intake(const cli::ExperimentRegistry& registry, std::size_t threads) {
  cli::DriverOptions driver = driver_options("e19", threads, "");
  driver.quiet = false;  // the report text carries the external section
  driver.sarif_report = kReportPath;
  driver.ground_truth = kTruthPath;
  std::ostringstream out;
  Intake run;
  const Clock::time_point start = Clock::now();
  run.outcome = cli::run_driver(registry, driver, out);
  run.seconds = seconds_since(start);
  run.text = std::move(out).str();
  return run;
}

}  // namespace

std::vector<std::string> check_scoring(OpCheck& check,
                                       const corpus::Manifest& truth,
                                       const corpus::SarifReport& report,
                                       const corpus::MatchResult& match,
                                       const core::ConfusionMatrix& direct,
                                       const core::ConfusionMatrix& streamed) {
  const corpus::MatchStats& stats = match.stats;
  check.expect(direct == streamed, "evaluate_direct " + direct.to_string() +
                                       " != evaluate_streamed " +
                                       streamed.to_string());
  check.expect(stats.matched + stats.stray + stats.duplicates ==
                   report.findings.size(),
               "matched + stray + duplicates != findings");
  check.expect(stats.sites == truth.site_count() &&
                   match.records.size() == truth.site_count(),
               "scored sites != manifest sites");
  check.expect(direct.total() == truth.site_count(),
               "confusion counts do not cover every site");
  return {"sites=" + std::to_string(stats.sites) +
              " matched=" + std::to_string(stats.matched) +
              " stray=" + std::to_string(stats.stray) +
              " duplicates=" + std::to_string(stats.duplicates) +
              " unknown-rule=" + std::to_string(stats.unknown_rule),
          "counts: " + direct.to_string()};
}

void check_intake(OpCheck& check, const cli::RunOutcome& outcome,
                  std::string_view text, const std::vector<std::string>& lines) {
  check.expect(outcome.exit_code == cli::kExitOk && outcome.failed == 0,
               "intake exit code " + std::to_string(outcome.exit_code));
  for (const std::string& line : lines)
    check.expect(text.find(line) != std::string_view::npos,
                 "intake report lacks '" + line + "'");
}

Result run_sarif_intake(const Options& options) {
  Result result;
  const cli::ExperimentRegistry registry = bench::study_registry();
  const corpus::SyntheticCorpusSpec spec = corpus_spec(options.seed, options.tiny);
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    write_corpus(spec);
    setup_s.push_back(seconds_since(start));
  }
  const std::vector<std::string> lines = score_independently(result);
  for (const std::string& line : lines) result.note("expected " + line);

  trim_heap();
  reset_peak_rss();
  std::vector<double> op_s;
  const auto run_once = [&] {
    Intake run = intake(registry, options.threads);
    OpCheck check;
    check_intake(check, run.outcome, run.text, lines);
    check.commit(result);
    return run;
  };
  const Clock::time_point loop = Clock::now();
  do {
    op_s.push_back(run_once().seconds);
  } while (seconds_since(loop) < options.seconds);
  set_end_to_end(result, setup_s, peak_rss_mib(), op_s, throughput(op_s));
  result.note("intake_s = " + std::to_string(median(op_s)) + " s over " +
              std::to_string(op_s.size()) + " intakes (min " +
              std::to_string(*std::min_element(op_s.begin(), op_s.end())) +
              ", max " +
              std::to_string(*std::max_element(op_s.begin(), op_s.end())) + ")");
  if (!options.trace) return result;

  // Traced phase: digest and parse both files through the public calls,
  // then one intake. The independent scoring is traced on its own, so the
  // corpus.* spans of the intake are not counted twice.
  trace_begin();
  score_independently(result);
  const SpanTable scoring = trace_end("trace-sarif_intake-scoring.json");
  for (const char* name : {span::kEvaluateDirect, span::kEvaluateStreamed})
    if (const auto it = scoring.find(name); it != scoring.end())
      result.note(std::string(name) + " = " +
                  std::to_string(it->second.total_us / 1e6) + " s");

  const std::uint64_t waits = counter_value(obs::Counter::kStreamBackpressureWaits);
  trace_begin();
  for (const char* path : {kTruthPath, kReportPath}) {
    {
      const obs::Span digest_span(span::kFileDigest, path);
      (void)stream::file_digest(path);
    }
    const std::string text = read_file(path).value_or("");
    const obs::Span parse_span(span::kParseJson, bytes_detail(text.size()));
    result.record(report::parse_json(text).has_value(),
                  std::string("report::parse_json rejected ") + path);
  }
  trim_heap();
  reset_peak_rss();
  const Intake traced = run_once();
  const double traced_rss = peak_rss_mib();
  const auto traced_waits = static_cast<double>(
      counter_value(obs::Counter::kStreamBackpressureWaits) - waits);
  const SpanTable spans = trace_end("trace-sarif_intake.json");
  Result traced_result;
  set_end_to_end(traced_result, setup_s, traced_rss, {traced.seconds},
                 1.0 / traced.seconds);
  note_trace_overhead(result, result.metrics, traced_result.metrics);
  const LayerValues direct = {
      {"cli.driver_ms_p50", traced.outcome.total_seconds * 1e3},
      {"stream.backpressure_waits", traced_waits},
  };
  result.metrics =
      layer_metrics(spans, {1.0, traced.seconds, options.threads}, direct);
  return result;
}

}  // namespace vdbench::perfbench
