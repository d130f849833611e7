// Session turnaround of the vdbench daemon. A session ends as soon as its
// study ends: the watchdog is woken by the worker, not by a timer, so
// back-to-back sessions of a short study cost the study, the driver's work
// and the wire round trip, with no fixed per-session quantum on top.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "cli/experiment.h"
#include "net/client.h"
#include "net/server.h"

namespace vdbench::net {
namespace {

namespace fs = std::filesystem;

TEST(SessionLatencyTest, BackToBackShortSessionsHaveNoFixedQuantum) {
  const fs::path dir = fs::temp_directory_path() / "vdsession_latency_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  // The study lasts 2 ms: short next to a 20 ms timer period, yet long
  // enough that the watchdog is already waiting when it ends.
  cli::ExperimentRegistry registry;
  registry.add({"noop", "sleeps 2 ms", "noop{}", false,
                [](cli::ExperimentContext&) {
                  std::this_thread::sleep_for(std::chrono::milliseconds(2));
                }});
  ServerOptions server_options;
  server_options.socket_path = (dir / "d.sock").string();
  server_options.cache_dir = (dir / "cache").string();
  server_options.work_dir = (dir / "work").string();
  auto server = std::make_unique<Server>(registry, server_options);
  std::ostringstream log;
  int rc = -1;
  std::thread serving([&] { rc = server->run(log); });

  ClientOptions client;
  client.socket_path = server_options.socket_path;
  client.request.experiments = "noop";
  client.request.threads = 0;  // never reconfigure the process-wide pool
  client.deadline_sec = 30.0;

  // A watchdog polling on a 20 ms period holds each session to at least
  // 20 ms, so 40 of them take 0.8 s; a woken one takes about 40 x 2 ms.
  constexpr int kSessions = 40;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kSessions; ++i) {
    std::ostringstream progress;
    const ClientOutcome outcome = run_study(client, progress);
    EXPECT_EQ(outcome.status.status, "ok") << "session " << i;
  }
  const std::chrono::duration<double> total =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(total.count(), 0.8) << kSessions << " sessions";

  server->request_drain();
  serving.join();
  server.reset();
  EXPECT_EQ(rc, 0);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace vdbench::net
