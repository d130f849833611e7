#include "common.h"

#include <fcntl.h>
#include <malloc.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "study_common.h"

namespace vdbench::perfbench {

void Result::set(std::string name, double value, std::string unit) {
  for (Metric& metric : metrics)
    if (metric.name == name) {
      metric.value = value;
      metric.unit = std::move(unit);
      return;
    }
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Result::record(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::optional<Tail> tail(std::vector<double> values) {
  const std::size_t n = values.size();
  if (n < 11) return std::nullopt;
  std::sort(values.begin(), values.end());
  Tail t;
  t.value = values[n - 11];  // the (n-10)-th smallest: ten samples beyond it
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  t.samples = n;
  return t;
}

bool reset_peak_rss() {
  std::ofstream refs("/proc/self/clear_refs");
  if (!refs) return false;
  refs << "5";
  refs.flush();
  return static_cast<bool>(refs);
}

double peak_rss_mib(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream status(path);
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  return 0.0;
}

void trim_heap() { ::malloc_trim(0); }

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

bool write_file(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  return static_cast<bool>(out);
}

std::string digest_hex(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  char text[17];
  std::snprintf(text, sizeof text, "%016llx",
                static_cast<unsigned long long>(hash));
  return text;
}

void fresh_dir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

cli::DriverOptions driver_options(const std::string& experiments,
                                  std::size_t threads,
                                  const std::string& cache_dir) {
  cli::DriverOptions options;
  options.experiments = experiments;
  options.threads = threads;
  options.cache_dir = cache_dir;
  options.use_cache = !cache_dir.empty();
  options.quiet = true;
  options.manifest_path.clear();
  options.retry_backoff_ms = 0;
  options.study_seed = bench::kStudySeed;
  return options;
}

bool Child::spawn(const std::vector<std::string>& argv,
                  const std::string& log_path) {
  stop();
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) {
      ::dup2(log, 1);
      ::dup2(log, 2);
      ::close(log);
    }
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  pid_ = pid;
  return true;
}

int Child::stop(double grace) {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  int status = 0;
  const Clock::time_point start = Clock::now();
  pid_t done = 0;
  while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
         seconds_since(start) < grace)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  if (done == 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    status = -1;
  }
  pid_ = -1;
  return status >= 0 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int Child::wait() {
  if (pid_ <= 0) return -1;
  int status = 0;
  const pid_t done = ::waitpid(pid_, &status, 0);
  pid_ = -1;
  return done > 0 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string bytes_detail(std::size_t bytes) {
  return "bytes=" + std::to_string(bytes);
}

void set_end_to_end(Result& result, const std::vector<double>& setup_s,
                    double rss_mib, const std::vector<double>& op_s,
                    double ops_per_s) {
  result.set("setup_s", median(setup_s), "s");
  result.set("peak_rss_mib", rss_mib, "MiB");
  result.set("op_p50_ms", median(op_s) * 1e3, "ms");
  result.set("ops_per_s", ops_per_s, "1/s");
}

double throughput(const std::vector<double>& op_s) {
  double busy = 0.0;
  for (const double seconds : op_s) busy += seconds;
  return busy > 0.0 ? static_cast<double>(op_s.size()) / busy : 0.0;
}

std::uint64_t counter_value(obs::Counter counter) {
  return obs::Registry::global().value(counter);
}

void note_trace_overhead(Result& result, const std::vector<Metric>& untraced,
                         const std::vector<Metric>& traced) {
  for (const Metric& base : untraced)
    for (const Metric& with : traced)
      if (with.name == base.name) {
        char line[160];
        std::snprintf(line, sizeof line,
                      "trace overhead %s = %+.4f %s (traced %.4f, untraced %.4f)",
                      base.name.c_str(), with.value - base.value,
                      base.unit.c_str(), with.value, base.value);
        result.note(line);
      }
}

}  // namespace vdbench::perfbench
