// Traced phase → per-layer metrics.
//
// The program already brackets its seams with obs spans (driver.*,
// cache.*, executor.task, corpus.*, study.stage1/2 and the StageTimer
// phase labels); the harness adds perfbench.* spans around the public
// calls it makes itself. A layer's time is the self time of its spans:
// each span's duration minus what its children on the same thread cover,
// so nested spans of one layer count once and a stage that waits on
// executor tasks is charged only for the waiting.
#include <algorithm>
#include <string_view>

#include "common.h"
#include "obs/trace.h"

namespace vdbench::perfbench {
namespace {

std::string_view field(std::string_view line, std::string_view key) {
  const std::size_t at = line.find(key);
  if (at == std::string_view::npos) return {};
  return line.substr(at + key.size());
}

std::string quoted(std::string_view text) {
  std::string out;
  for (std::size_t i = 0; i < text.size() && text[i] != '"'; ++i) {
    if (text[i] == '\\' && i + 1 < text.size()) ++i;
    out += text[i];
  }
  return out;
}

double number(std::string_view text) {
  double value = 0.0;
  std::size_t i = 0;
  for (; i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i)
    value = value * 10.0 + (text[i] - '0');
  return value;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

// Which layer a span's self time belongs to; "" = no per-layer metric.
std::string_view layer_of(std::string_view name) {
  if (name == "study.stage1" || name == "stage 1 assessment") return "core.stage1";
  if (name == "study.stage2" || starts_with(name, "stage 2: ")) return "core.stage2";
  // Stage 3: MCDA validation, the method/noise ablations and the weight
  // sensitivity sweep (e8, e9, e13).
  if (name == "stage 2 + validation" || name == "method ablation" ||
      name == "noise sweep" || name == "weight sensitivity")
    return "mcda.validation";
  // Simulated tool campaigns (e5, e12, e13, e17).
  if (name == "suite campaign" || name == "benchmark tools" ||
      name == "benchmark + aggregate" || name == "generate workload" ||
      name == "generate workloads" || name == "base corpus cohort" ||
      name == "low-prevalence cohort")
    return "vdsim.campaign";
  if (name == "cache.store" || name == "cache store") return "cache.store";
  if (name == "driver.export") return "report.export";
  if (name == "corpus.parse_manifest") return "corpus.parse_manifest";
  if (name == "corpus.parse_sarif") return "corpus.parse_sarif";
  if (name == "corpus.match") return "corpus.match";
  if (name == span::kFileDigest) return "stream.file_digest";
  return "";
}

}  // namespace

void trace_begin() { obs::Tracer::global().start(); }

SpanTable trace_end(const std::string& path) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.stop();
  const std::string json = tracer.render_json();
  write_file(path, json);
  return aggregate_trace(json);
}

SpanTable aggregate_trace(std::string_view trace_json) {
  struct Frame {
    std::string name;
    double start_us = 0.0;
    double child_us = 0.0;
    double bytes = 0.0;
  };
  std::map<std::uint64_t, std::vector<Frame>> stacks;
  SpanTable table;
  std::size_t pos = 0;
  while (pos < trace_json.size()) {
    std::size_t end = trace_json.find('\n', pos);
    if (end == std::string_view::npos) end = trace_json.size();
    const std::string_view line = trace_json.substr(pos, end - pos);
    pos = end + 1;
    if (!starts_with(line, "{\"name\":\"")) continue;
    const std::string_view phase = field(line, "\"ph\":\"");
    if (phase.empty() || (phase[0] != 'B' && phase[0] != 'E')) continue;
    const double ts = number(field(line, "\"ts\":"));
    std::vector<Frame>& stack =
        stacks[static_cast<std::uint64_t>(number(field(line, "\"tid\":")))];
    if (phase[0] == 'B') {
      Frame frame;
      frame.name = quoted(line.substr(9));
      frame.start_us = ts;
      const std::string detail = quoted(field(line, "\"detail\":\""));
      if (starts_with(detail, "bytes=")) frame.bytes = number(detail.substr(6));
      stack.push_back(std::move(frame));
      continue;
    }
    if (stack.empty()) continue;
    const Frame frame = std::move(stack.back());
    stack.pop_back();
    const double duration = std::max(0.0, ts - frame.start_us);
    SpanStats& stats = table[frame.name];
    ++stats.count;
    stats.total_us += duration;
    stats.self_us += std::max(0.0, duration - frame.child_us);
    stats.bytes += frame.bytes;
    stats.durations_us.push_back(duration);
    if (std::none_of(stack.begin(), stack.end(),
                     [&](const Frame& outer) { return outer.name == frame.name; }))
      stats.outer_us += duration;
    if (!stack.empty()) stack.back().child_us += duration;
  }
  return table;
}

std::vector<Metric> layer_metrics(const SpanTable& spans,
                                  const TracedPhase& phase,
                                  const LayerValues& direct) {
  std::map<std::string, double, std::less<>> self_s;
  for (const auto& [name, stats] : spans) {
    const std::string_view layer = layer_of(name);
    if (!layer.empty()) self_s[std::string(layer)] += stats.self_us / 1e6;
  }
  const auto per_op = [&](std::string_view layer) {
    const auto it = self_s.find(layer);
    return it == self_s.end() ? 0.0 : it->second / std::max(phase.ops, 1.0);
  };
  const auto find = [&](std::string_view name) -> const SpanStats* {
    const auto it = spans.find(name);
    return it == spans.end() ? nullptr : &it->second;
  };
  const auto count = [&](std::string_view name) {
    const SpanStats* stats = find(name);
    return stats == nullptr ? 0.0 : static_cast<double>(stats->count);
  };
  const auto p50_us = [&](std::string_view name) {
    const SpanStats* stats = find(name);
    return stats == nullptr ? 0.0 : median(stats->durations_us);
  };
  const auto given = [&](std::string_view name) {
    const auto it = direct.find(name);
    return it == direct.end() ? 0.0 : it->second;
  };

  const SpanStats* tasks = find("executor.task");
  const double busy_frac =
      tasks == nullptr || phase.wall_s <= 0.0
          ? 0.0
          : tasks->outer_us / 1e6 /
                (phase.wall_s * static_cast<double>(phase.threads));
  const SpanStats* parses = find(span::kParseJson);
  const double parse_mb_per_s =
      parses == nullptr || parses->total_us <= 0.0
          ? 0.0
          : parses->bytes / 1e6 / (parses->total_us / 1e6);

  return {
      {"core.stage1_s", per_op("core.stage1"), "s"},
      {"core.stage1_calls", count("study.stage1") / std::max(phase.ops, 1.0),
       "count"},
      {"core.stage2_s", per_op("core.stage2"), "s"},
      {"mcda.validation_s", per_op("mcda.validation"), "s"},
      {"vdsim.campaign_s", per_op("vdsim.campaign"), "s"},
      {"stats.executor.tasks", count("executor.task") / std::max(phase.ops, 1.0),
       "count"},
      {"stats.executor.task_p50_us", p50_us("executor.task"), "us"},
      {"stats.executor.busy_frac", busy_frac, "fraction"},
      {"stats.speedup", given("stats.speedup"), "x"},
      {"cache.store_s", per_op("cache.store"), "s"},
      {"cache.store_bytes", given("cache.store_bytes"), "bytes"},
      {"cache.fetch_us_p50", p50_us("cache.fetch"), "us"},
      {"cache.hit_rate", given("cache.hit_rate"), "fraction"},
      {"net.overhead_ms_p50", given("net.overhead_ms_p50"), "ms"},
      {"net.first_frame_ms_p50", given("net.first_frame_ms_p50"), "ms"},
      {"net.bytes_per_session", given("net.bytes_per_session"), "bytes"},
      {"cli.driver_ms_p50", given("cli.driver_ms_p50"), "ms"},
      {"report.export_s", p50_us("driver.export") / 1e6, "s"},
      {"report.parse_json_mb_per_s", parse_mb_per_s, "MB/s"},
      {"corpus.parse_manifest_s", per_op("corpus.parse_manifest"), "s"},
      {"corpus.parse_sarif_s", per_op("corpus.parse_sarif"), "s"},
      {"corpus.match_s", per_op("corpus.match"), "s"},
      {"stream.file_digest_s", per_op("stream.file_digest"), "s"},
      {"stream.backpressure_waits", given("stream.backpressure_waits"), "count"},
  };
}

}  // namespace vdbench::perfbench
