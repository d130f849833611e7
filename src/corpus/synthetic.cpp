#include "corpus/synthetic.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "report/json.h"
#include "stats/rng.h"

namespace vdbench::corpus {

namespace {

double clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

}  // namespace

std::string synthetic_rule_id(vdsim::VulnClass c) {
  return "synth-" + std::string(vdsim::vuln_class_cwe(c));
}

Manifest synthesize_manifest(const SyntheticCorpusSpec& spec) {
  Manifest manifest;
  manifest.name = spec.name;
  for (const vdsim::VulnClass c : vdsim::all_vuln_classes())
    manifest.rules.emplace(synthetic_rule_id(c),
                           std::string(vdsim::vuln_class_cwe(c)));

  stats::Rng root(spec.seed);
  for (std::size_t e = 0; e < spec.ecosystems.size(); ++e) {
    const SyntheticEcosystemSpec& eco_spec = spec.ecosystems[e];
    stats::Rng rng = root.split(static_cast<std::uint64_t>(e));
    Ecosystem eco;
    eco.name = eco_spec.name;
    const std::string uri =
        "corpus/" + spec.name + "/" + eco_spec.name + ".src";
    for (std::uint32_t s = 0; s < eco_spec.sites; ++s) {
      TruthSite site;
      site.uri = uri;
      site.line = s + 1;
      site.vulnerable = rng.bernoulli(eco_spec.prevalence);
      if (site.vulnerable)
        site.vuln_class = vdsim::all_vuln_classes()[rng.categorical(
            std::span<const double>(eco_spec.class_mix))];
      site.difficulty = 0.05 * static_cast<double>(rng.uniform_int(2, 18));
      eco.sites.push_back(std::move(site));
    }
    manifest.ecosystems.push_back(std::move(eco));
  }
  return manifest;
}

SarifReport synthesize_report(const SyntheticCorpusSpec& spec,
                              const Manifest& manifest,
                              const vdsim::ToolProfile& tool) {
  SarifReport report;
  report.tool_name = tool.name;
  report.tool_version = "1.0";
  for (const vdsim::VulnClass c : vdsim::all_vuln_classes())
    report.rules.push_back(
        {synthetic_rule_id(c), std::string(vdsim::vuln_class_name(c)),
         "warning"});

  stats::Rng root(spec.seed);
  stats::Rng rng = root.split(tool.name);
  for (const Ecosystem& eco : manifest.ecosystems) {
    for (const TruthSite& site : eco.sites) {
      SarifFinding finding;
      finding.uri = site.uri;
      finding.line = site.line;
      finding.level = "warning";
      if (site.vulnerable) {
        const std::size_t cls = vdsim::vuln_class_index(site.vuln_class);
        if (!rng.bernoulli(tool.sensitivity[cls])) continue;
        finding.rule_id = synthetic_rule_id(site.vuln_class);
        finding.message = "detected " +
                          std::string(vdsim::vuln_class_name(site.vuln_class));
        finding.confidence =
            clamp01(rng.normal(tool.confidence_tp_mean, tool.confidence_sd));
      } else {
        if (!rng.bernoulli(tool.fallout)) continue;
        const vdsim::VulnClass claimed = vdsim::all_vuln_classes()
            [rng.pick_index(vdsim::kVulnClassCount)];
        finding.rule_id = synthetic_rule_id(claimed);
        finding.message = "suspected " +
                          std::string(vdsim::vuln_class_name(claimed));
        finding.confidence =
            clamp01(rng.normal(tool.confidence_fp_mean, tool.confidence_sd));
      }
      report.findings.push_back(std::move(finding));
    }
  }
  return report;
}

std::string render_manifest(const Manifest& manifest) {
  report::JsonWriter w;
  w.begin_object();
  w.field("schema", static_cast<std::uint64_t>(kManifestSchemaVersion));
  w.field("name", manifest.name);
  w.key("rules").begin_object();
  for (const auto& [rule_id, cwe] : manifest.rules) w.field(rule_id, cwe);
  w.end_object();
  w.key("ecosystems").begin_array();
  for (const Ecosystem& eco : manifest.ecosystems) {
    w.begin_object();
    w.field("name", eco.name);
    w.key("sites").begin_array();
    for (const TruthSite& site : eco.sites) {
      w.begin_object();
      w.field("uri", site.uri);
      w.field("line", static_cast<std::uint64_t>(site.line));
      w.field("vulnerable", site.vulnerable);
      if (site.vulnerable)
        w.field("cwe", vdsim::vuln_class_cwe(site.vuln_class));
      w.field("difficulty", site.difficulty);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string render_sarif_report(const SarifReport& report) {
  report::JsonWriter w;
  w.begin_object();
  w.field("version", "2.1.0");
  w.key("runs").begin_array();
  w.begin_object();
  w.key("tool").begin_object();
  w.key("driver").begin_object();
  w.field("name", report.tool_name);
  w.field("version", report.tool_version);
  w.key("rules").begin_array();
  for (const SarifRule& rule : report.rules) {
    w.begin_object();
    w.field("id", rule.id);
    if (!rule.short_description.empty()) {
      w.key("shortDescription").begin_object();
      w.field("text", rule.short_description);
      w.end_object();
    }
    if (!rule.level.empty()) {
      w.key("defaultConfiguration").begin_object();
      w.field("level", rule.level);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();  // driver
  w.end_object();  // tool
  w.key("results").begin_array();
  for (const SarifFinding& finding : report.findings) {
    w.begin_object();
    w.field("ruleId", finding.rule_id);
    w.field("level", finding.level);
    if (!finding.message.empty()) {
      w.key("message").begin_object();
      w.field("text", finding.message);
      w.end_object();
    }
    w.key("locations").begin_array();
    w.begin_object();
    w.key("physicalLocation").begin_object();
    w.key("artifactLocation").begin_object();
    w.field("uri", finding.uri);
    w.end_object();
    w.key("region").begin_object();
    w.field("startLine", static_cast<std::uint64_t>(finding.line));
    if (finding.column > 0)
      w.field("startColumn", static_cast<std::uint64_t>(finding.column));
    w.end_object();
    w.end_object();  // physicalLocation
    w.end_object();  // location
    w.end_array();
    if (finding.confidence >= 0.0) {
      w.key("properties").begin_object();
      w.field("confidence", finding.confidence);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();  // run
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace vdbench::corpus
