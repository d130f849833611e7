// Driver-level drills for the streaming pipeline (E18): injected
// stream.produce / stream.consume faults must be retried by the supervisor
// and recover to a JSON export byte-identical to the clean run; a recorded
// report log must replay byte-identically at any thread count; a corrupt
// replay log must fail the experiment loudly, never yield a short stream.
// Lives in the parallel test binary so the producer thread + watchdog
// machinery runs under the tsan ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cli/driver.h"
#include "experiments.h"
#include "fault/injector.h"

namespace vdbench::cli {
namespace {

namespace fs = std::filesystem;

class StreamResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("vdstream_resilience_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    registry_ = bench::study_registry();
  }
  void TearDown() override {
    fault::Injector::global().disarm();
    fs::remove_all(dir_);
  }

  DriverOptions drill_options(const std::string& tag, std::size_t threads) {
    DriverOptions options;
    options.experiments = "e18";
    options.threads = threads;
    options.cache_dir = (dir_ / ("cache_" + tag)).string();
    options.json_out = (dir_ / (tag + ".json")).string();
    options.manifest_path.clear();
    options.artifact_dir = (dir_ / ("artifacts_" + tag)).string();
    options.quiet = true;
    options.study_seed = 42;
    options.retries = 2;
    options.retry_backoff_ms = 0;
    options.clock = [this] { return ++tick_; };
    return options;
  }

  static std::string slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
  }

  fs::path dir_;
  ExperimentRegistry registry_;
  std::uint64_t tick_ = 0;
};

TEST_F(StreamResilienceTest, StreamFaultsRecoverByteIdenticallyUnderRetry) {
  const struct {
    const char* tag;
    const char* spec;
  } kDrills[] = {
      {"produce_throw", "stream.produce=throw@5:1"},
      {"produce_enospc", "stream.produce=io_error@2:1"},
      {"consume_throw", "stream.consume=throw@3:1"},
      {"consume_corrupt", "stream.consume=corrupt@7:1"},
  };
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const std::string t = "t" + std::to_string(threads);
    const DriverOptions clean = drill_options("clean_" + t, threads);
    ASSERT_EQ(run_driver(registry_, clean, std::cout).exit_code, kExitOk);
    const std::string clean_export = slurp(clean.json_out);
    ASSERT_FALSE(clean_export.empty());

    for (const auto& drill : kDrills) {
      const std::string tag = std::string(drill.tag) + "_" + t;
      DriverOptions options = drill_options(tag, threads);
      fault::Injector::global().arm(drill.spec);
      std::ostringstream out;
      const RunOutcome run = run_driver(registry_, options, out);
      fault::Injector::global().disarm();
      ASSERT_EQ(run.exit_code, kExitOk)
          << drill.spec << " threads=" << threads << "\n"
          << out.str();
      ASSERT_EQ(run.experiments.size(), 1u);
      ASSERT_GE(run.experiments[0].attempts.size(), 2u) << drill.spec;
      EXPECT_EQ(run.experiments[0].attempts[0].result, "injected_fault");
      EXPECT_EQ(run.experiments[0].attempts.back().result, "ok");
      EXPECT_EQ(slurp(options.json_out), clean_export)
          << drill.spec << " threads=" << threads
          << ": recovered export differs from the clean run";
    }
  }
}

TEST_F(StreamResilienceTest, StallInProducerIsWatchdogCancelledAndRetried) {
  // A stream.produce timeout stalls the producer thread; the consumer
  // blocks on the queue, the watchdog fires, and both sides unwind through
  // the cooperative cancellation token. The retry then runs clean and the
  // export matches the unfaulted run.
  const DriverOptions clean = drill_options("clean", 4);
  const RunOutcome clean_run = run_driver(registry_, clean, std::cout);
  ASSERT_EQ(clean_run.exit_code, kExitOk);
  ASSERT_EQ(clean_run.experiments.size(), 1u);
  ASSERT_FALSE(clean_run.experiments[0].attempts.empty());

  // The watchdog budget must leave the clean retry ample room: a fixed
  // 0.5 s is about one clean run under ThreadSanitizer, so scale it.
  const double timeout =
      std::max(0.5, 4.0 * clean_run.experiments[0].attempts[0].seconds);
  DriverOptions options = drill_options("stall", 4);
  options.timeout_sec = timeout;
  options.retries = 1;
  fault::Injector::global().arm("stream.produce=timeout@4:1");
  std::ostringstream out;
  const RunOutcome run = run_driver(registry_, options, out);
  fault::Injector::global().disarm();
  ASSERT_EQ(run.exit_code, kExitOk) << out.str();
  ASSERT_EQ(run.experiments.size(), 1u);
  const ExperimentOutcome& e18 = run.experiments[0];
  ASSERT_EQ(e18.attempts.size(), 2u);
  EXPECT_EQ(e18.attempts[0].result, "timeout");
  EXPECT_GE(e18.attempts[0].seconds, timeout);  // held until the watchdog
  EXPECT_EQ(e18.attempts[1].result, "ok");
  EXPECT_EQ(slurp(options.json_out), slurp(clean.json_out));
}

TEST_F(StreamResilienceTest, RecordedLogReplaysByteIdenticallyAtAnyThreads) {
  // Record once, replay at several thread counts: every export must match
  // the recording run byte for byte — the CI determinism matrix in
  // miniature.
  DriverOptions record = drill_options("record", 1);
  record.record_log = (dir_ / "e18.vdrlog").string();
  std::ostringstream record_out;
  ASSERT_EQ(run_driver(registry_, record, record_out).exit_code, kExitOk)
      << record_out.str();
  const std::string recorded_export = slurp(record.json_out);
  ASSERT_FALSE(recorded_export.empty());
  ASSERT_GT(fs::file_size(record.record_log), 16u);  // header + frames

  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    DriverOptions replay =
        drill_options("replay_t" + std::to_string(threads), threads);
    replay.replay_log = record.record_log;
    std::ostringstream out;
    ASSERT_EQ(run_driver(registry_, replay, out).exit_code, kExitOk)
        << out.str();
    EXPECT_EQ(slurp(replay.json_out), recorded_export)
        << "replay at threads=" << threads
        << " diverged from the recording run";
  }
}

TEST_F(StreamResilienceTest, CorruptReplayLogFailsLoudlyNotShort) {
  DriverOptions record = drill_options("record", 1);
  record.record_log = (dir_ / "e18.vdrlog").string();
  ASSERT_EQ(run_driver(registry_, record, std::cout).exit_code, kExitOk);

  // Chop the tail: a silent reader would fold a short stream and export
  // plausible-but-wrong numbers. The driver must fail the experiment with
  // the typed corruption message instead.
  const std::string bytes = slurp(record.record_log);
  const fs::path torn = dir_ / "torn.vdrlog";
  {
    std::ofstream out(torn, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  DriverOptions replay = drill_options("replay_torn", 1);
  replay.replay_log = torn.string();
  replay.retries = 0;
  std::ostringstream out;
  const RunOutcome run = run_driver(registry_, replay, out);
  EXPECT_NE(run.exit_code, kExitOk);
  EXPECT_NE(out.str().find("report log corrupt"), std::string::npos)
      << out.str();
}

}  // namespace
}  // namespace vdbench::cli
