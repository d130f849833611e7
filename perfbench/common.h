// Shared plumbing for the vdperf benchmark harness: options, the result a
// workload reports, sample statistics, peak-RSS probes, child processes and
// the traced-phase span aggregation (layers.cpp).
//
// Every workload follows the same shape: set up (timed several times, the
// median is `setup_s`), run operations in a loop for --seconds with tracing
// off, check every operation's output, and — with --trace 1 — run a
// separate traced phase whose spans become the per-layer metrics.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cli/driver.h"
#include "core/confusion.h"
#include "corpus/manifest.h"
#include "corpus/matcher.h"
#include "corpus/sarif.h"
#include "net/client.h"
#include "obs/registry.h"

namespace vdbench::perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;        ///< self-test sizes: seconds of work, not minutes
  std::string vdbench;      ///< path of the study runner binary
  std::string vdbenchd;     ///< path of the daemon binary
  std::size_t threads = 1;  ///< min(nproc, 4): the load one process brings
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. Every operation (a study, a session, an
/// intake, a verification pass) counts as attempted; one whose output fails
/// any check counts as failed, so failed / attempted is the error rate.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::vector<Metric> metrics;        ///< in report order
  std::vector<std::string> notes;     ///< extra "name = value" lines

  void set(std::string name, double value, std::string unit);
  void note(const std::string& line) { notes.push_back(line); }
  void record(bool ok, const std::string& what);
  [[nodiscard]] bool correct() const { return failed == 0 && attempted > 0; }
};

/// The checks of one operation: the first failed expectation names it.
class OpCheck {
 public:
  void expect(bool condition, const std::string& what) {
    if (!condition && ok_) {
      ok_ = false;
      what_ = what;
    }
  }
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& what() const { return what_; }
  void commit(Result& result) const { result.record(ok_, what_); }

 private:
  bool ok_ = true;
  std::string what_;
};

// ---- sample statistics ----------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated quantile q in [0, 1] of unsorted values.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// The highest percentile with at least ten samples beyond it: the
/// (n - 10)-th smallest of n samples, labelled 100 * (n - 10) / n.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] std::optional<Tail> tail(std::vector<double> values);

// ---- process probes ---------------------------------------------------------

/// Reset this process's peak RSS to its current RSS (Linux clear_refs 5).
/// Returns false when the kernel refuses, in which case peaks include
/// everything the process did before.
bool reset_peak_rss();
/// VmHWM of `pid` (0 = this process) in MiB; 0 when unreadable.
[[nodiscard]] double peak_rss_mib(pid_t pid = 0);
/// Hand freed heap back to the kernel so a reset peak starts low.
void trim_heap();

// ---- files ------------------------------------------------------------------

[[nodiscard]] std::optional<std::string> read_file(const std::string& path);
bool write_file(const std::string& path, std::string_view content);
/// 64-bit FNV-1a of `bytes`, printed in hex as the export digest.
[[nodiscard]] std::string digest_hex(std::string_view bytes);
/// Remove and recreate an empty directory.
void fresh_dir(const std::string& path);

// ---- driver calls -----------------------------------------------------------

/// Driver options the harness starts from: quiet, no retries, no manifest
/// unless asked, `threads` workers, cache under `cache_dir` ("" = bypass).
[[nodiscard]] cli::DriverOptions driver_options(const std::string& experiments,
                                               std::size_t threads,
                                               const std::string& cache_dir);

// ---- child processes ---------------------------------------------------------

/// A child process that is always stopped: the destructor sends SIGTERM,
/// waits up to `grace` seconds, then SIGKILLs and reaps. The child also
/// receives SIGKILL if the harness dies first (PR_SET_PDEATHSIG).
class Child {
 public:
  Child() = default;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child() { stop(); }

  /// fork + execv(argv[0]); stdout/stderr go to `log_path`.
  bool spawn(const std::vector<std::string>& argv, const std::string& log_path);
  /// Graceful stop; returns the exit status (-1 when killed or not running).
  int stop(double grace = 10.0);
  /// Wait for the child to exit on its own; returns its exit status.
  int wait();
  [[nodiscard]] pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

// ---- traced phase (layers.cpp) ------------------------------------------------

/// Per-span-name aggregate of one traced phase. Self time is the span's
/// duration minus the part its child spans on the same thread cover.
struct SpanStats {
  std::size_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  double outer_us = 0.0;  ///< duration not nested in a same-name span
  double bytes = 0.0;     ///< summed "bytes=N" span details
  std::vector<double> durations_us;
};
using SpanTable = std::map<std::string, SpanStats, std::less<>>;

/// Start recording spans process-wide (obs::Tracer).
void trace_begin();
/// Stop recording, write the Chrome trace to `path` (for Perfetto) and
/// return the per-name aggregate.
[[nodiscard]] SpanTable trace_end(const std::string& path);
/// Parse the trace-event JSON obs::Tracer renders (one event a line).
[[nodiscard]] SpanTable aggregate_trace(std::string_view trace_json);

/// Values a workload measures directly rather than from spans.
using LayerValues = std::map<std::string, double, std::less<>>;

/// What the traced phase covered, for normalising span totals.
struct TracedPhase {
  double ops = 1.0;         ///< operations the traced phase ran
  double wall_s = 0.0;      ///< traced wall clock, for executor busy share
  std::size_t threads = 1;  ///< executor size in the traced phase
};

/// Every per-layer metric, in BENCHMARK.json order: span-derived ones from
/// `spans`, the rest from `direct` (0 when the workload has no such layer
/// work — the layer sat idle).
[[nodiscard]] std::vector<Metric> layer_metrics(const SpanTable& spans,
                                                const TracedPhase& phase,
                                                const LayerValues& direct);

/// Harness span names, around the public calls the harness itself makes.
namespace span {
inline constexpr const char* kRunStudy = "perfbench.net.run_study";
inline constexpr const char* kCacheFetch = "perfbench.cache.fetch";
inline constexpr const char* kParseJson = "perfbench.report.parse_json";
inline constexpr const char* kFileDigest = "perfbench.stream.file_digest";
inline constexpr const char* kEvaluateDirect = "perfbench.corpus.evaluate_direct";
inline constexpr const char* kEvaluateStreamed =
    "perfbench.corpus.evaluate_streamed";
}  // namespace span

/// obs::Span detail carrying a byte count the aggregator sums.
[[nodiscard]] std::string bytes_detail(std::size_t bytes);

// ---- workload checks (exposed for the self-test's negative cases) -----------

/// One in-process run_driver call as the harness saw it.
struct DriverPass {
  cli::RunOutcome outcome;
  std::string export_json;
  double seconds = 0.0;
};

/// study_cold: the cold study computed all `expected` experiments and exits
/// 0, its export parses with `expected` entries and has digest `digest`,
/// and a warm replay hits every entry and exports the same bytes.
void check_cold_study(OpCheck& check, const DriverPass& cold,
                      const DriverPass& warm, std::size_t expected,
                      std::string_view digest);

/// daemon_warm: the session ended "ok" with exit 0, its export equals the
/// in-process `reference` export byte for byte, and its manifest reports
/// every experiment replayed from the cache. Returns the driver's wall time
/// in seconds from the manifest (0 when it is unreadable).
double check_session(OpCheck& check, const net::ClientOutcome& session,
                     const std::string& reference);

/// sarif_intake, scored independently of the driver: the direct and
/// streamed folds agree, matched + stray + duplicates account for every
/// finding, and every manifest site was scored. Returns the two lines the
/// driver's external-corpus report must contain.
std::vector<std::string> check_scoring(OpCheck& check,
                                       const corpus::Manifest& truth,
                                       const corpus::SarifReport& report,
                                       const corpus::MatchResult& match,
                                       const core::ConfusionMatrix& direct,
                                       const core::ConfusionMatrix& streamed);
/// sarif_intake, per operation: the driver exited 0 and its report text
/// holds every expected line.
void check_intake(OpCheck& check, const cli::RunOutcome& outcome,
                  std::string_view text, const std::vector<std::string>& lines);

// ---- workloads ----------------------------------------------------------------

Result run_study_cold(const Options& options);
Result run_daemon_warm(const Options& options);
Result run_sarif_intake(const Options& options);
/// Tiny runs of every workload plus one deliberately broken output each;
/// returns the process exit code.
int run_self_test(const Options& options);

/// The end-to-end metrics every workload reports, from its set-up timings,
/// peak RSS, per-operation wall times and operations completed per second.
void set_end_to_end(Result& result, const std::vector<double>& setup_s,
                    double rss_mib, const std::vector<double>& op_s,
                    double ops_per_s);
/// Operations per second of busy time, for workloads that run one
/// operation at a time.
[[nodiscard]] double throughput(const std::vector<double>& op_s);

/// Current value of one process-wide obs counter.
[[nodiscard]] std::uint64_t counter_value(obs::Counter counter);

/// Print traced-minus-untraced for each end-to-end metric.
void note_trace_overhead(Result& result, const std::vector<Metric>& untraced,
                         const std::vector<Metric>& traced);

}  // namespace vdbench::perfbench
