// The benchmark's own test: every workload at a tiny size, traced, must
// pass its checks; then one deliberately broken output per workload must
// trip the check that guards it.
#include <iostream>
#include <sstream>

#include "common.h"
#include "corpus/intake.h"
#include "corpus/synthetic.h"
#include "experiments.h"
#include "vdsim/tool.h"

namespace vdbench::perfbench {
namespace {

int failures = 0;

void expect(bool condition, const std::string& what) {
  std::cout << "self-test: " << (condition ? "ok   " : "FAIL ") << what << "\n";
  if (!condition) ++failures;
}

bool passes(const auto& run_check) {
  OpCheck check;
  run_check(check);
  return check.ok();
}

std::string flip_byte(std::string bytes) {
  if (!bytes.empty()) bytes[bytes.size() / 2] ^= 0x01;
  return bytes;
}

void tiny_workloads(Options options) {
  options.tiny = true;
  options.trace = true;
  options.seconds = 1.0;
  for (const auto& [name, run] :
       {std::pair{"study_cold", &run_study_cold},
        std::pair{"daemon_warm", &run_daemon_warm},
        std::pair{"sarif_intake", &run_sarif_intake}}) {
    const Result result = run(options);
    for (const std::string& failure : result.failures)
      std::cout << "self-test: " << name << ": " << failure << "\n";
    expect(result.correct(), std::string("tiny ") + name + " passes its checks");
    expect(result.metrics.size() == 24,
           std::string("tiny ") + name + " reports every per-layer metric");
  }
}

void study_cold_negative() {
  const cli::ExperimentRegistry registry = bench::study_registry();
  fresh_dir("neg-cache");
  cli::DriverOptions options = driver_options("e1,e5", 1, "neg-cache");
  const auto pass = [&](const std::string& export_path) {
    options.json_out = export_path;
    std::ostringstream out;
    DriverPass run;
    run.outcome = cli::run_driver(registry, options, out);
    run.export_json = read_file(export_path).value_or("");
    return run;
  };
  const DriverPass cold = pass("neg-cold.json");
  const DriverPass warm = pass("neg-warm.json");
  const std::string digest = digest_hex(cold.export_json);
  expect(passes([&](OpCheck& c) { check_cold_study(c, cold, warm, 2, digest); }),
         "study_cold: an intact cold/warm pair passes");
  DriverPass flipped = cold;
  flipped.export_json = flip_byte(cold.export_json);
  expect(!passes([&](OpCheck& c) { check_cold_study(c, flipped, warm, 2, digest); }),
         "study_cold: a flipped export byte trips the check");
  expect(!passes([&](OpCheck& c) { check_cold_study(c, cold, cold, 2, digest); }),
         "study_cold: a warm replay that computed trips the check");
}

void daemon_warm_negative() {
  net::ClientOutcome session;
  session.export_json = R"({"schema":3,"experiments":[]})";
  session.manifest_json =
      R"({"summary":{"hit_rate":1,"misses":0,"total_seconds":0.001}})";
  const std::string reference = session.export_json;
  expect(passes([&](OpCheck& c) { (void)check_session(c, session, reference); }),
         "daemon_warm: an intact session passes");
  net::ClientOutcome flipped = session;
  flipped.export_json = flip_byte(session.export_json);
  expect(!passes([&](OpCheck& c) { (void)check_session(c, flipped, reference); }),
         "daemon_warm: a flipped export byte trips the check");
  net::ClientOutcome missed = session;
  missed.manifest_json =
      R"({"summary":{"hit_rate":0.5,"misses":1,"total_seconds":0.001}})";
  expect(!passes([&](OpCheck& c) { (void)check_session(c, missed, reference); }),
         "daemon_warm: a session that missed the cache trips the check");
}

void sarif_intake_negative() {
  corpus::SyntheticCorpusSpec spec;
  spec.name = "negative";
  spec.seed = 7;
  spec.ecosystems = {{"eco", 400, 0.2, {1, 1, 1, 1, 1, 1, 1, 1}}};
  const corpus::Manifest truth = corpus::synthesize_manifest(spec);
  const corpus::SarifReport report =
      corpus::synthesize_report(spec, truth, vdsim::builtin_tools().front());
  const corpus::MatchResult match = corpus::match_findings(truth, report);
  const core::ConfusionMatrix direct = corpus::evaluate_direct(match.records);
  const core::ConfusionMatrix streamed =
      corpus::evaluate_streamed(match.records, 64);
  std::vector<std::string> lines;
  expect(passes([&](OpCheck& c) {
           lines = check_scoring(c, truth, report, match, direct, streamed);
         }),
         "sarif_intake: intact scoring passes");
  core::ConfusionMatrix perturbed = streamed;
  ++perturbed.tp;
  expect(!passes([&](OpCheck& c) {
           (void)check_scoring(c, truth, report, match, direct, perturbed);
         }),
         "sarif_intake: a perturbed confusion count trips the check");
  cli::RunOutcome ok;
  const std::string text = lines[0] + "\n" + lines[1] + "\n";
  expect(passes([&](OpCheck& c) { check_intake(c, ok, text, lines); }),
         "sarif_intake: a report with the expected lines passes");
  std::string wrong = text;
  wrong.replace(wrong.find("matched="), 8, "matched=9");
  expect(!passes([&](OpCheck& c) { check_intake(c, ok, wrong, lines); }),
         "sarif_intake: a report with a different match count trips the check");
}

}  // namespace

int run_self_test(const Options& options) {
  tiny_workloads(options);
  study_cold_negative();
  daemon_warm_negative();
  sarif_intake_negative();
  std::cout << "self-test: " << (failures == 0 ? "passed" : "FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace vdbench::perfbench
