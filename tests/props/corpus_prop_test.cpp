// Property test for the corpus matcher: random manifests and random SARIF
// reports are scored both by the production pipeline (match_findings →
// evaluate_direct / evaluate_streamed) and by a deliberately independent
// oracle that re-derives the ambiguity policy with linear scans. The two
// must agree cell-for-cell on every generated case.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/confusion.h"
#include "corpus/intake.h"
#include "corpus/manifest.h"
#include "corpus/matcher.h"
#include "corpus/sarif.h"
#include "stream/record.h"
#include "support/propgen.h"
#include "vdsim/vuln.h"

namespace vdbench::corpus {
namespace {

using testsupport::PropGen;

struct GeneratedCase {
  Manifest manifest;
  SarifReport report;
};

// Random manifest + report. Site identities are unique by construction
// (one uri per ecosystem, line = ordinal); findings cover matched sites
// (with duplicate claims), strays, unmapped rules and absent confidences.
GeneratedCase generate(PropGen& gen) {
  GeneratedCase out;
  out.manifest.name = "prop";
  // Rules r0..r7 map onto the taxonomy; "r-offmap" maps outside it and
  // "r-unlisted" stays out of the table entirely.
  for (const vdsim::VulnClass c : vdsim::all_vuln_classes())
    out.manifest.rules.emplace(
        "r" + std::to_string(vdsim::vuln_class_index(c)),
        std::string(vdsim::vuln_class_cwe(c)));
  out.manifest.rules.emplace("r-offmap", "CWE-0000");

  const std::size_t ecosystems = 1 + gen.below(2);
  for (std::size_t e = 0; e < ecosystems; ++e) {
    Ecosystem eco;
    eco.name = "eco" + std::to_string(e);
    const std::string uri = "src/eco" + std::to_string(e) + ".c";
    const std::size_t sites = 2 + gen.below(18);
    for (std::size_t s = 0; s < sites; ++s) {
      TruthSite site;
      site.uri = uri;
      site.line = static_cast<std::uint32_t>(s + 1);
      site.vulnerable = gen.below(99) < 40;
      if (site.vulnerable)
        site.vuln_class = vdsim::all_vuln_classes()[gen.below(7)];
      site.difficulty = 0.05 * static_cast<double>(gen.below(20));
      eco.sites.push_back(site);

      // 0–3 findings on this site.
      const std::size_t claims = gen.below(3);
      for (std::size_t f = 0; f < claims; ++f) {
        SarifFinding finding;
        finding.uri = uri;
        finding.line = site.line;
        finding.level = "warning";
        const std::size_t pick = gen.below(9);
        finding.rule_id =
            pick < 8 ? std::string("r").append(std::to_string(pick))
            : gen.below(1) == 0 ? "r-offmap"
                                : "r-unlisted";
        finding.confidence =
            gen.below(3) == 0 ? -1.0 : gen.uniform(0.0, 1.0);
        out.report.findings.push_back(finding);
      }
    }
    out.manifest.ecosystems.push_back(std::move(eco));
  }

  // Stray findings nothing enumerates.
  const std::size_t strays = gen.below(4);
  for (std::size_t i = 0; i < strays; ++i) {
    SarifFinding finding;
    finding.uri = "stray/file" + std::to_string(gen.below(2)) + ".c";
    finding.line = static_cast<std::uint32_t>(1 + gen.below(5));
    finding.rule_id = "r0";
    finding.confidence = gen.uniform(0.0, 1.0);
    out.report.findings.push_back(finding);
  }
  return out;
}

// Independent re-derivation of the policy: for each site, a full linear
// scan over the findings; confusion cells computed straight from the
// matcher.h clauses rather than via stream::accumulate.
struct Oracle {
  core::ConfusionMatrix cm;
  MatchStats stats;
};

Oracle score_by_hand(const GeneratedCase& c) {
  Oracle oracle;
  std::vector<bool> consumed(c.report.findings.size(), false);
  for (const Ecosystem& eco : c.manifest.ecosystems) {
    for (const TruthSite& site : eco.sites) {
      ++oracle.stats.sites;
      std::optional<std::size_t> winner;
      double best = -2.0;
      std::size_t on_site = 0;
      for (std::size_t f = 0; f < c.report.findings.size(); ++f) {
        const SarifFinding& finding = c.report.findings[f];
        if (finding.uri != site.uri || finding.line != site.line) continue;
        ++on_site;
        consumed[f] = true;
        if (finding.confidence > best) {
          best = finding.confidence;
          winner = f;
        }
      }
      if (on_site > 0) {
        ++oracle.stats.matched;
        oracle.stats.duplicates += on_site - 1;
      }
      std::optional<vdsim::VulnClass> claimed;
      bool unknown = false;
      if (winner) {
        const auto rule =
            c.manifest.rules.find(c.report.findings[*winner].rule_id);
        if (rule != c.manifest.rules.end())
          claimed = vuln_class_from_cwe(rule->second);
        unknown = !claimed.has_value();
        if (unknown) ++oracle.stats.unknown_rule;
      }
      if (!site.vulnerable) {
        if (winner)
          ++oracle.cm.fp;
        else
          ++oracle.cm.tn;
      } else if (!winner) {
        ++oracle.cm.fn;
      } else if (!unknown && *claimed == site.vuln_class) {
        ++oracle.cm.tp;
      } else {
        ++oracle.cm.fp;
        ++oracle.cm.fn;
      }
    }
  }
  for (std::size_t f = 0; f < c.report.findings.size(); ++f)
    if (!consumed[f]) ++oracle.stats.stray;
  return oracle;
}

TEST(CorpusPropertyTest, MatcherAgreesWithTheHandComputedOracle) {
  PropGen gen = PropGen::from_current_test();
  for (int iteration = 0; iteration < 60; ++iteration) {
    const GeneratedCase c = generate(gen);
    const Oracle oracle = score_by_hand(c);
    const MatchResult match = match_findings(c.manifest, c.report);

    EXPECT_EQ(match.stats.sites, oracle.stats.sites) << "iter " << iteration;
    EXPECT_EQ(match.stats.matched, oracle.stats.matched)
        << "iter " << iteration;
    EXPECT_EQ(match.stats.stray, oracle.stats.stray) << "iter " << iteration;
    EXPECT_EQ(match.stats.duplicates, oracle.stats.duplicates)
        << "iter " << iteration;
    EXPECT_EQ(match.stats.unknown_rule, oracle.stats.unknown_rule)
        << "iter " << iteration;

    const core::ConfusionMatrix direct = evaluate_direct(match.records);
    ASSERT_TRUE(direct == oracle.cm)
        << "iter " << iteration << ": pipeline " << direct.to_string()
        << " vs oracle " << oracle.cm.to_string();

    // Streamed transport with a random chunking changes nothing.
    const std::size_t chunk = 1 + gen.below(40);
    const core::ConfusionMatrix streamed =
        evaluate_streamed(match.records, chunk);
    ASSERT_TRUE(streamed == direct)
        << "iter " << iteration << " chunk " << chunk << ": "
        << streamed.to_string() << " vs " << direct.to_string();
  }
}

TEST(CorpusPropertyTest, RecordCountsAlwaysBalance) {
  // Invariant: every enumerated site yields exactly one record; the
  // confusion cells total sites plus one extra for each wrong-class claim
  // on a vulnerable site (which scores FP and FN at once).
  PropGen gen = PropGen::from_current_test();
  for (int iteration = 0; iteration < 40; ++iteration) {
    const GeneratedCase c = generate(gen);
    const MatchResult match = match_findings(c.manifest, c.report);
    EXPECT_EQ(match.records.size(), match.stats.sites) << "iter " << iteration;

    std::uint64_t dual = 0;
    for (const stream::SiteRecord& record : match.records)
      if (record.truth != stream::kCleanSite &&
          record.claimed != stream::kNoFinding &&
          record.claimed != record.truth)
        ++dual;
    const core::ConfusionMatrix cm = evaluate_direct(match.records);
    EXPECT_EQ(cm.tp + cm.fp + cm.tn + cm.fn, match.stats.sites + dual)
        << "iter " << iteration;
  }
}

}  // namespace
}  // namespace vdbench::corpus
