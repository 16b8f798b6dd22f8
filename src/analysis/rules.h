#ifndef DNSTTL_ANALYSIS_RULES_H
#define DNSTTL_ANALYSIS_RULES_H

#include <string>
#include <vector>

#include "analysis/finding.h"
#include "analysis/index.h"
#include "analysis/summary.h"

namespace dnsttl::analysis {

/// Rule metadata for --list-rules, the SARIF rule table and the fixture
/// corpus's every-rule-fires check.
struct RuleInfo {
  const char* name;
  const char* contract;  // which repo contract the rule enforces
  const char* summary;
};

const std::vector<RuleInfo>& rule_infos();

/// Runs every intraprocedural rule over one indexed file.  `rel_path` is
/// the repo-relative path with forward slashes; path-scoped rules
/// (raw-time-param headers only, unit-float-cast stats exemption) key on
/// it.  Suppressions (`lint:allow`/`analyze:allow`) are already applied:
/// suppressed findings never come back — but when `suppressed` is non-null
/// the silenced findings are appended there, so the stale-suppression
/// audit can tell a used allow from a dead one.
Findings run_rules(const FileIndex& index, const std::string& rel_path,
                   Findings* suppressed = nullptr);

/// Phase-1 half of unit-arith: records in `summary` every `+ - * / %`
/// whose operands are both raw escapes (`.count()`, `.ticks()`,
/// `.value()`, `.raw()`), with the units this file declares, and for a
/// header its unit-typed class fields.
void collect_unit_arith(const FileIndex& index, const std::string& rel_path,
                        FileSummary& summary);

/// Phase-2 half: resolves the operands left unresolved in phase 1 against
/// one repo-wide table of unit-typed header fields (names declared with
/// two units are left out) and reports the operators that mix units.
/// Findings an allow comment covers go to `suppressed`.
void resolve_unit_arith(const std::vector<FileSummary>& files,
                        Findings& findings, Findings& suppressed);

}  // namespace dnsttl::analysis

#endif  // DNSTTL_ANALYSIS_RULES_H
