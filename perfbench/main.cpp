// vdperf: the vdbench benchmark harness. run.py builds it and calls
//
//   vdperf --workload <study_cold|daemon_warm|sarif_intake> --seed N
//          --seconds S --trace 0|1 --work DIR --vdbench PATH --vdbenchd PATH
//   vdperf --self-test --work DIR --vdbench PATH --vdbenchd PATH
//
// It runs inside DIR (recreated empty), prints one "name = value" line per
// note and metric, and as its last line one JSON object with the keys
// correct, attempted, failed and metrics. It exits 1 when any check failed.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "common.h"

namespace {

using vdbench::perfbench::Options;
using vdbench::perfbench::Result;

void print_json_string(const std::string& text) {
  std::cout << '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') std::cout << '\\';
    std::cout << c;
  }
  std::cout << '"';
}

void print_result(const Options& options, const Result& result) {
  for (const std::string& note : result.notes)
    std::cout << options.workload << ": " << note << "\n";
  for (const std::string& failure : result.failures)
    std::cout << options.workload << ": FAILED " << failure << "\n";
  const double error_rate =
      result.attempted == 0
          ? 1.0
          : static_cast<double>(result.failed) /
                static_cast<double>(result.attempted);
  std::cout << options.workload << ": error_rate = " << error_rate << " ("
            << result.failed << " of " << result.attempted << " operations)\n";
  char line[256];
  for (const auto& metric : result.metrics) {
    std::snprintf(line, sizeof line, "%s: %-28s %16.6f %s",
                  options.workload.c_str(), metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    std::cout << line << "\n";
  }
  std::cout << "{\"correct\": " << (result.correct() ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& metric : result.metrics) {
    if (!first) std::cout << ", ";
    first = false;
    print_json_string(metric.name);
    std::snprintf(line, sizeof line, "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    std::cout << ": {\"value\": " << line << ", \"unit\": ";
    print_json_string(metric.unit);
    std::cout << "}";
  }
  std::cout << "}}" << std::endl;
}

int usage(const std::string& problem) {
  std::cerr << "vdperf: " << problem
            << "\nusage: vdperf --workload W --seed N --seconds S --trace 0|1 "
               "--work DIR --vdbench PATH --vdbenchd PATH\n"
               "       vdperf --self-test --work DIR --vdbench PATH "
               "--vdbenchd PATH\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string work;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (arg == "--self-test") {
        self_test = true;
      } else if (arg == "--workload" && has_value) {
        options.workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        options.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        options.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace" && has_value) {
        options.trace = std::string(argv[++i]) == "1";
      } else if (arg == "--work" && has_value) {
        work = argv[++i];
      } else if (arg == "--vdbench" && has_value) {
        options.vdbench = std::filesystem::absolute(argv[++i]).string();
      } else if (arg == "--vdbenchd" && has_value) {
        options.vdbenchd = std::filesystem::absolute(argv[++i]).string();
      } else {
        return usage("bad argument: " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + arg);
    }
  }
  if (work.empty() || options.vdbench.empty() || options.vdbenchd.empty())
    return usage("--work, --vdbench and --vdbenchd are required");
  options.threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);

  // Everything the run writes — caches, corpora, sockets, traces — lives
  // in the work directory, and relative paths keep the daemon's socket
  // path short however deep the checkout is.
  vdbench::perfbench::fresh_dir(work);
  if (::chdir(work.c_str()) != 0) return usage("cannot enter " + work);

  if (self_test) return vdbench::perfbench::run_self_test(options);

  Result result;
  try {
    if (options.workload == "study_cold") {
      result = vdbench::perfbench::run_study_cold(options);
    } else if (options.workload == "daemon_warm") {
      result = vdbench::perfbench::run_daemon_warm(options);
    } else if (options.workload == "sarif_intake") {
      result = vdbench::perfbench::run_sarif_intake(options);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& error) {
    std::cerr << "vdperf: " << options.workload << " aborted: " << error.what()
              << "\n";
    return 1;
  }
  print_result(options, result);
  return result.correct() ? 0 : 1;
}
