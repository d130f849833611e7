// daemon_warm: a `vdbenchd` process whose shared cache was filled during
// set-up, driven by three closed-loop clients (net::run_study) that submit
// a seeded mix of selections, from the full study down to single
// experiments. Compute sits idle: wire framing, session handling, cache
// reads, manifests and export do the work, and sessions queue behind one
// another because the daemon runs them one at a time.
#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>
#include <thread>

#include "cache/result_cache.h"
#include "common.h"
#include "experiments.h"
#include "obs/trace.h"
#include "report/json_reader.h"
#include "study_common.h"

namespace vdbench::perfbench {
namespace {

constexpr int kSetupRepeats = 3;
constexpr std::size_t kClients = 3;
constexpr int kFetchRounds = 5;
constexpr const char* kCacheDir = "cache";
constexpr const char* kSessionDir = "sessions";
constexpr const char* kSocket = "vdbenchd.sock";
/// Self-test experiments: cheap, so the fill takes milliseconds.
constexpr const char* kTinyIds[] = {"e1", "e5", "e11", "e12"};

/// Counts the progress bytes a session streams and when the first came.
class ProgressSink : public std::streambuf {
 public:
  std::optional<Clock::time_point> first;
  std::size_t bytes = 0;

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    mark(static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type c) override {
    mark(1);
    return traits_type::not_eof(c);
  }

 private:
  void mark(std::size_t n) {
    if (!first) first = Clock::now();
    bytes += n;
  }
};

std::string join(const std::vector<std::string>& ids) {
  std::string csv;
  for (const std::string& id : ids) csv += (csv.empty() ? "" : ",") + id;
  return csv;
}

/// Every selection the clients draw from: the full study, its halves,
/// thirds and sixths in registry order, and each single experiment, so
/// export sizes range from one experiment to all of them. The pool is
/// fixed; the seed only orders the requests.
std::vector<std::string> request_pool(const std::vector<std::string>& ids) {
  std::vector<std::string> pool;
  for (const std::size_t parts : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                  std::size_t{6}, ids.size()}) {
    const std::size_t size = (ids.size() + parts - 1) / parts;
    for (std::size_t start = 0; start < ids.size(); start += size)
      pool.push_back(join({ids.begin() + static_cast<std::ptrdiff_t>(start),
                           ids.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(start + size, ids.size()))}));
  }
  return pool;
}

struct Session {
  double latency_s = 0.0;
  double first_frame_s = 0.0;
  double driver_s = 0.0;
  std::size_t bytes = 0;
  bool ok = false;
  std::string what;
};

Session run_session(const std::string& experiments, const std::string& reference) {
  net::ClientOptions client;
  client.socket_path = kSocket;
  client.request.experiments = experiments;
  client.request.want_manifest = true;
  ProgressSink sink;
  std::ostream progress(&sink);
  Session session;
  const Clock::time_point start = Clock::now();
  net::ClientOutcome outcome;
  {
    const obs::Span run_span(span::kRunStudy, experiments);
    outcome = net::run_study(client, progress);
  }
  session.latency_s = seconds_since(start);
  session.first_frame_s =
      sink.first ? std::chrono::duration<double>(*sink.first - start).count()
                 : session.latency_s;
  session.bytes =
      sink.bytes + outcome.export_json.size() + outcome.manifest_json.size();
  OpCheck check;
  session.driver_s = check_session(check, outcome, reference);
  session.ok = check.ok();
  session.what = check.what();
  return session;
}

struct Loop {
  std::vector<Session> sessions;
  double wall_s = 0.0;
};

/// kClients closed-loop clients for `seconds`: each sends its next request
/// only when the previous one has answered. Client c draws its requests
/// from the pool with its own generator seeded from (seed, c).
Loop client_loop(const std::vector<std::string>& pool,
                 const std::vector<std::string>& references,
                 std::uint64_t seed, double seconds) {
  std::vector<std::vector<Session>> per_client(kClients);
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        std::mt19937_64 rng(seed * 7919 + c + 1);
        std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
        while (seconds_since(start) < seconds) {
          const std::size_t i = pick(rng);
          try {
            per_client[c].push_back(run_session(pool[i], references[i]));
          } catch (const std::exception& error) {
            per_client[c].push_back({.what = error.what()});
          }
        }
      });
  }
  Loop loop;
  loop.wall_s = seconds_since(start);
  for (std::vector<Session>& sessions : per_client)
    for (Session& session : sessions) loop.sessions.push_back(std::move(session));
  return loop;
}

/// Spawn the daemon and wait until it has answered one warm session.
double start_daemon(Child& daemon, const Options& options, int index) {
  const Clock::time_point start = Clock::now();
  daemon.spawn({options.vdbenchd, "--socket", kSocket, "--cache-dir", kCacheDir,
                "--work-dir", kSessionDir, "--threads",
                std::to_string(options.threads), "--max-queue", "8",
                "--deadline-sec", "120"},
               "vdbenchd-" + std::to_string(index) + ".log");
  net::ClientOptions probe;
  probe.socket_path = kSocket;
  probe.request.experiments = "e1";
  probe.deadline_sec = 30.0;
  std::ostringstream sink;
  while (seconds_since(start) < 60.0) {
    const net::ClientOutcome outcome = net::run_study(probe, sink);
    if (outcome.status.exit_code == 0) return seconds_since(start);
    if (outcome.status.exit_code != net::kExitTransport) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return -1.0;
}

void note_sessions(Result& result, const Loop& loop, const std::string& label) {
  std::vector<double> latency_ms;
  for (const Session& session : loop.sessions)
    latency_ms.push_back(session.latency_s * 1e3);
  result.note(label + "session_p50_ms = " + std::to_string(median(latency_ms)) +
              " ms over " + std::to_string(latency_ms.size()) + " sessions");
  if (const std::optional<Tail> t = tail(latency_ms))
    result.note(label + "session_tail_ms = " + std::to_string(t->value) +
                " ms (p" + std::to_string(t->percentile) + " of " +
                std::to_string(t->samples) + ")");
  result.note(label + "sessions_per_s = " +
              std::to_string(static_cast<double>(loop.sessions.size()) /
                             loop.wall_s));
}

std::vector<double> latencies_s(const Loop& loop) {
  std::vector<double> seconds;
  for (const Session& session : loop.sessions) seconds.push_back(session.latency_s);
  return seconds;
}

}  // namespace

double check_session(OpCheck& check, const net::ClientOutcome& session,
                     const std::string& reference) {
  check.expect(session.status.exit_code == 0 && session.status.status == "ok",
               "session status " + session.status.status + ": " +
                   session.status.error);
  check.expect(session.export_json == reference,
               "session export differs from the in-process export");
  std::optional<report::JsonValue> manifest;
  {
    const obs::Span parse_span(span::kParseJson,
                               bytes_detail(session.manifest_json.size()));
    manifest = report::parse_json(session.manifest_json);
  }
  const report::JsonValue* summary =
      manifest ? manifest->member("summary") : nullptr;
  const auto number = [&](std::string_view key) {
    const report::JsonValue* value =
        summary != nullptr ? summary->member(key) : nullptr;
    return value != nullptr ? value->as_number().value_or(-1.0) : -1.0;
  };
  check.expect(number("hit_rate") == 1.0 && number("misses") == 0.0,
               "session manifest reports cache misses");
  return std::max(0.0, number("total_seconds"));
}

Result run_daemon_warm(const Options& options) {
  Result result;
  const cli::ExperimentRegistry registry = bench::study_registry();
  std::vector<std::string> ids;
  if (options.tiny) {
    ids.assign(std::begin(kTinyIds), std::end(kTinyIds));
  } else {
    std::vector<std::string> unknown;
    for (const cli::Experiment* experiment : registry.select("all", unknown))
      ids.push_back(experiment->id);
  }
  const std::vector<std::string> pool = request_pool(ids);

  // Fill the shared cache with one cold study, then make the reference
  // export of every pool selection in-process from the warm cache.
  fresh_dir(kCacheDir);
  fresh_dir(kSessionDir);
  const Clock::time_point fill = Clock::now();
  {
    std::ostringstream out;
    const cli::RunOutcome cold = cli::run_driver(
        registry, driver_options(pool.front(), options.threads, kCacheDir), out);
    OpCheck check;
    check.expect(cold.exit_code == cli::kExitOk, "cache fill failed");
    check.commit(result);
  }
  result.note("fill_s = " + std::to_string(seconds_since(fill)) +
              " s (cold study into the shared cache)");
  std::vector<std::string> references;
  const auto replay_pool = [&] {
    references.clear();
    for (const std::string& selection : pool) {
      cli::DriverOptions driver =
          driver_options(selection, options.threads, kCacheDir);
      driver.json_out = "reference.json";
      std::ostringstream out;
      const cli::RunOutcome warm = cli::run_driver(registry, driver, out);
      OpCheck check;
      check.expect(warm.exit_code == cli::kExitOk && warm.misses == 0,
                   "in-process replay of '" + selection + "' missed the cache");
      check.commit(result);
      references.push_back(read_file(driver.json_out).value_or(""));
    }
  };
  replay_pool();

  // Set-up: daemon spawn until it has served one warm session, timed
  // kSetupRepeats times; the last daemon stays up for the measurement.
  Child daemon;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double seconds = start_daemon(daemon, options, i);
    OpCheck check;
    check.expect(seconds >= 0.0, "daemon did not come up");
    check.commit(result);
    if (seconds < 0.0) return result;
    setup_s.push_back(seconds);
    if (i + 1 < kSetupRepeats) {
      OpCheck drained;
      drained.expect(daemon.stop() == 0, "daemon did not drain cleanly");
      drained.commit(result);
    }
  }

  const Loop loop = client_loop(pool, references, options.seed, options.seconds);
  for (const Session& session : loop.sessions) result.record(session.ok, session.what);
  set_end_to_end(result, setup_s, peak_rss_mib(daemon.pid()), latencies_s(loop),
                 static_cast<double>(loop.sessions.size()) / loop.wall_s);
  note_sessions(result, loop, "");

  if (options.trace) {
    // Traced phase: the same client loop with harness spans on, then the
    // daemon stops and the harness replays the pool in-process and reads
    // every cache entry directly, so driver, export and cache spans show.
    trace_begin();
    const Loop traced =
        client_loop(pool, references, options.seed, options.seconds);
    for (const Session& session : traced.sessions)
      result.record(session.ok, session.what);
    Result traced_result;
    set_end_to_end(traced_result, setup_s, peak_rss_mib(daemon.pid()),
                   latencies_s(traced),
                   static_cast<double>(traced.sessions.size()) / traced.wall_s);
    note_sessions(result, traced, "traced ");
    OpCheck drained;
    drained.expect(daemon.stop() == 0, "daemon did not drain cleanly");
    drained.commit(result);

    replay_pool();
    cache::ResultCache cache({kCacheDir});
    std::vector<std::string> unknown;
    for (int round = 0; round < kFetchRounds; ++round)
      for (const cli::Experiment* experiment : registry.select(join(ids), unknown)) {
        const cache::CacheKey key{experiment->id, experiment->config,
                                  bench::kStudySeed, cli::kEngineSchemaVersion};
        const obs::Span fetch_span(span::kCacheFetch, experiment->id);
        const bool hit = cache.fetch(key, 0).has_value();
        result.record(hit, "direct cache fetch of " + experiment->id + " missed");
      }
    const SpanTable spans = trace_end("trace-daemon_warm.json");
    note_trace_overhead(result, result.metrics, traced_result.metrics);

    std::vector<double> overhead_ms, first_frame_ms, driver_ms;
    double bytes = 0.0;
    for (const Session& session : traced.sessions) {
      overhead_ms.push_back((session.latency_s - session.driver_s) * 1e3);
      first_frame_ms.push_back(session.first_frame_s * 1e3);
      driver_ms.push_back(session.driver_s * 1e3);
      bytes += static_cast<double>(session.bytes);
    }
    const double sessions = static_cast<double>(traced.sessions.size());
    const LayerValues direct = {
        {"cache.hit_rate", cache.stats().hit_rate()},
        {"net.overhead_ms_p50", median(overhead_ms)},
        {"net.first_frame_ms_p50", median(first_frame_ms)},
        {"net.bytes_per_session", bytes / sessions},
        {"cli.driver_ms_p50", median(driver_ms)},
    };
    result.metrics =
        layer_metrics(spans, {sessions, traced.wall_s, options.threads}, direct);
    return result;
  }
  OpCheck drained;
  drained.expect(daemon.stop() == 0, "daemon did not drain cleanly");
  drained.commit(result);
  return result;
}

}  // namespace vdbench::perfbench
