// study_cold: the paper's three-stage study as a user first runs it —
// cli::run_driver over every cacheable experiment at `threads` workers into
// a fresh, empty cache directory. Compute layers do the work; the cache
// only stores.
#include <filesystem>
#include <functional>
#include <sstream>

#include "common.h"
#include "experiments.h"
#include "obs/trace.h"
#include "report/json_reader.h"
#include "stats/parallel.h"

namespace vdbench::perfbench {
namespace {

constexpr int kSetupRepeats = 25;
constexpr const char* kCacheDir = "cache";
/// Self-test selection: cheap experiments, still computed and cached.
constexpr const char* kTinySelection = "e1,e5,e11,e12";

DriverPass run_pass(const cli::ExperimentRegistry& registry,
                    cli::DriverOptions options, const std::string& export_path) {
  options.json_out = export_path;
  std::ostringstream out;
  DriverPass pass;
  const Clock::time_point start = Clock::now();
  pass.outcome = cli::run_driver(registry, options, out);
  pass.seconds = seconds_since(start);
  pass.export_json = read_file(export_path).value_or("");
  return pass;
}

std::size_t exported_experiments(std::string_view export_json) {
  const obs::Span parse_span(span::kParseJson, bytes_detail(export_json.size()));
  const std::optional<report::JsonValue> doc = report::parse_json(export_json);
  const report::JsonValue* list = doc ? doc->member("experiments") : nullptr;
  const auto* items = list != nullptr ? list->as_array() : nullptr;
  return items != nullptr ? items->size() : 0;
}

double entry_bytes(const std::string& dir) {
  double bytes = 0.0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".vdc")
      bytes += static_cast<double>(entry.file_size());
  return bytes;
}

}  // namespace

void check_cold_study(OpCheck& check, const DriverPass& cold,
                      const DriverPass& warm, std::size_t expected,
                      std::string_view digest) {
  check.expect(cold.outcome.exit_code == cli::kExitOk, "cold study exit code");
  std::size_t computed = 0;
  for (const cli::ExperimentOutcome& outcome : cold.outcome.experiments)
    if (outcome.source == cli::ExperimentOutcome::Source::kComputed) ++computed;
  check.expect(computed == expected,
               "cold study computed " + std::to_string(computed) + " of " +
                   std::to_string(expected) + " experiments");
  check.expect(exported_experiments(cold.export_json) == expected,
               "cold export does not list every experiment");
  check.expect(digest_hex(cold.export_json) == digest,
               "cold export digest differs from the run's first study");
  check.expect(warm.outcome.exit_code == cli::kExitOk &&
                   warm.outcome.hits == expected,
               "warm replay missed the cache");
  check.expect(warm.export_json == cold.export_json,
               "warm replay export differs from the cold export");
}

Result run_study_cold(const Options& options) {
  Result result;
  const std::string selection = options.tiny ? kTinySelection : "all";

  // Set-up: start the study runner as a user would (`vdbench --list`, the
  // process start plus registry construction), then build the registry
  // and the executor at `threads` in-process and make a fresh cache dir.
  cli::ExperimentRegistry registry;
  const auto set_up = [&] {
    std::vector<double> seconds;
    for (int i = 0; i < kSetupRepeats; ++i) {
      const Clock::time_point start = Clock::now();
      Child runner;
      OpCheck listed;
      listed.expect(runner.spawn({options.vdbench, "--list"}, "list.log") &&
                        runner.wait() == 0,
                    "vdbench --list failed");
      listed.commit(result);
      registry = bench::study_registry();
      stats::set_global_threads(options.threads);
      fresh_dir(kCacheDir);
      seconds.push_back(seconds_since(start));
    }
    return seconds;
  };
  const std::vector<double> setup_s = set_up();
  std::vector<std::string> unknown;
  const std::size_t expected = registry.select(selection, unknown).size();

  // One operation: a cold study, then `after_cold`, then (untimed) its
  // warm replay and the checks.
  std::string digest;
  const auto study = [&](std::size_t threads,
                         const std::function<void()>& after_cold = {}) {
    fresh_dir(kCacheDir);
    const cli::DriverOptions driver =
        driver_options(selection, threads, kCacheDir);
    DriverPass cold = run_pass(registry, driver, "cold.export.json");
    if (after_cold) after_cold();
    const DriverPass warm = run_pass(registry, driver, "warm.export.json");
    if (digest.empty()) digest = digest_hex(cold.export_json);
    OpCheck check;
    check_cold_study(check, cold, warm, expected, digest);
    check.commit(result);
    return cold;
  };

  reset_peak_rss();
  std::vector<double> op_s;
  const Clock::time_point loop = Clock::now();
  do {
    op_s.push_back(study(options.threads).seconds);
  } while (seconds_since(loop) < options.seconds);
  set_end_to_end(result, setup_s, peak_rss_mib(), op_s, throughput(op_s));
  result.note("study_s = " + std::to_string(median(op_s)) + " s over " +
              std::to_string(op_s.size()) + " cold studies of " +
              std::to_string(expected) + " experiments at " +
              std::to_string(options.threads) + " threads");
  result.note("export digest = " + digest);
  if (!options.trace) return result;

  // Traced phase: the same set-up and one cold study with spans recorded
  // (its warm replay is not), then one untraced cold study at 1 thread for
  // the speedup.
  const std::uint64_t waits = counter_value(obs::Counter::kStreamBackpressureWaits);
  trace_begin();
  const std::vector<double> traced_setup = set_up();
  reset_peak_rss();
  double traced_rss = 0.0;
  double traced_waits = 0.0;
  SpanTable spans;
  const DriverPass traced = study(options.threads, [&] {
    traced_rss = peak_rss_mib();
    traced_waits = static_cast<double>(
        counter_value(obs::Counter::kStreamBackpressureWaits) - waits);
    spans = trace_end("trace-study_cold.json");
  });
  const double store_bytes = entry_bytes(kCacheDir);
  Result traced_result;
  set_end_to_end(traced_result, traced_setup, traced_rss, {traced.seconds},
                 1.0 / traced.seconds);
  note_trace_overhead(result, result.metrics, traced_result.metrics);

  const double serial_s = study(1).seconds;
  result.note("study_s at 1 thread = " + std::to_string(serial_s) + " s");
  const LayerValues direct = {
      {"stats.speedup", serial_s / median(op_s)},
      {"cache.store_bytes", store_bytes},
      {"cache.hit_rate", traced.outcome.hit_rate},
      {"cli.driver_ms_p50", traced.outcome.total_seconds * 1e3},
      {"stream.backpressure_waits", traced_waits},
  };
  result.metrics =
      layer_metrics(spans, {1.0, traced.seconds, options.threads}, direct);
  return result;
}

}  // namespace vdbench::perfbench
