#include "analysis/analyzer.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "analysis/callgraph.h"
#include "analysis/dataflow.h"
#include "analysis/index.h"
#include "analysis/rules.h"
#include "par/pool.h"

namespace dnsttl::analysis {
namespace {

namespace fs = std::filesystem;

std::string slashes(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  return path;
}

bool source_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h";
}

/// Phase-1 output for one file: intraprocedural findings (visible and
/// allow-silenced) plus the call summary phase 2 links.
struct FileResult {
  Findings findings;
  Findings suppressed;
  FileSummary summary;
};

FileResult analyze_one(const std::string& rel, const std::string& source) {
  FileResult out;
  FileIndex index(rel, source);
  const std::string rel_slashes = slashes(rel);
  out.findings = run_rules(index, rel_slashes, &out.suppressed);
  out.summary = summarize_file(index, rel_slashes);
  collect_unit_arith(index, rel_slashes, out.summary);
  return out;
}

/// The stale-suppression audit: every allow comment must say why, and
/// must name a rule of this analyzer that has a finding (visible or
/// silenced — silenced is the normal case) on one of its covered lines;
/// otherwise the allow is a typo or dead weight and gets its own finding.
/// Runs after phase 2 so an allow justified by a phase-2 finding counts as
/// used.
void audit_suppressions(const std::vector<FileSummary>& summaries,
                        const Findings& all_would_fire, Findings& out) {
  std::set<std::string> registered;
  for (const RuleInfo& info : rule_infos()) registered.insert(info.name);

  // (file, rule, line) lookup over every finding either emitted or
  // suppressed anywhere in the run.
  std::set<std::string> fired;
  for (const Finding& f : all_would_fire) {
    fired.insert(f.file + "\x1f" + f.rule + "\x1f" + std::to_string(f.line));
  }

  for (const FileSummary& file : summaries) {
    for (const AllowSite& site : file.allow_sites) {
      if (!site.justified) {
        out.push_back({"stale-suppression", file.path, site.comment_line,
                       "allow(" + site.rule + ") gives no reason; say why "
                       "after the closing parenthesis",
                       "allow(" + site.rule + ")"});
      }
      const bool known = registered.count(site.rule) != 0;
      bool used = false;
      for (std::size_t line : site.covered_lines) {
        if (known && fired.count(file.path + "\x1f" + site.rule + "\x1f" +
                                 std::to_string(line)) != 0) {
          used = true;
          break;
        }
      }
      if (used) continue;
      // The stale finding itself honours the suppression table (an allow
      // comment can whitelist its own audit: `lint:allow(x,
      // stale-suppression)` keeps a deliberately pre-emptive allow).
      auto it = file.allow_lines.find(site.comment_line);
      if (it != file.allow_lines.end() &&
          it->second.count("stale-suppression") != 0) {
        continue;
      }
      out.push_back(
          {"stale-suppression", file.path, site.comment_line,
           "suppression names '" + site.rule + "' but " +
               (known ? "that rule no longer fires on the covered line"
                      : "no rule of this analyzer has that name") +
               "; delete the dead allow comment (or fix the rule name)",
           "allow(" + site.rule + ")"});
    }
  }
}

}  // namespace

Findings analyze_sources(const std::vector<SourceFile>& sources,
                         std::size_t jobs) {
  // Phase 1: per-file, sharded over the pool.  The shard split is a pure
  // function of the workload (shard_count_for), never of `jobs`, and the
  // merge walks shards in index order — so any jobs value produces the
  // same findings in the same order.
  const std::size_t shards = par::shard_count_for(sources.size());
  const auto shard_results =
      par::map_shards(shards, jobs, [&](std::size_t shard) {
        std::vector<FileResult> block;
        for (std::size_t i = shard; i < sources.size(); i += shards) {
          block.push_back(analyze_one(sources[i].first, sources[i].second));
        }
        return block;
      });

  // Stitch back into file order: shard s holds files s, s+shards, ...
  std::vector<const FileResult*> per_file(sources.size(), nullptr);
  for (std::size_t s = 0; s < shard_results.size(); ++s) {
    std::size_t i = s;
    for (const FileResult& r : shard_results[s]) {
      per_file[i] = &r;
      i += shards;
    }
  }

  Findings visible;
  Findings would_fire;  // visible + suppressed, for the stale audit
  std::vector<FileSummary> summaries;
  summaries.reserve(sources.size());
  for (const FileResult* r : per_file) {
    visible.insert(visible.end(), r->findings.begin(), r->findings.end());
    would_fire.insert(would_fire.end(), r->findings.begin(),
                      r->findings.end());
    would_fire.insert(would_fire.end(), r->suppressed.begin(),
                      r->suppressed.end());
    summaries.push_back(r->summary);
  }

  // Phase 2: whole-repo call graph + interprocedural dataflow, then
  // unit-arith against the repo-wide field table (serial; both need every
  // summary).
  DataflowResult ip = run_dataflow(summaries);
  resolve_unit_arith(summaries, ip.findings, ip.suppressed);
  visible.insert(visible.end(), ip.findings.begin(), ip.findings.end());
  would_fire.insert(would_fire.end(), ip.findings.begin(),
                    ip.findings.end());
  would_fire.insert(would_fire.end(), ip.suppressed.begin(),
                    ip.suppressed.end());

  audit_suppressions(summaries, would_fire, visible);
  return visible;
}

Findings analyze_source(const std::string& rel_path,
                        const std::string& source) {
  return analyze_sources({{rel_path, source}});
}

std::vector<std::string> collect_sources(const std::string& root,
                                         const std::vector<std::string>& paths,
                                         std::string* error) {
  std::vector<std::string> out;
  const fs::path root_path(root);
  for (const std::string& p : paths) {
    fs::path abs = fs::path(p).is_absolute() ? fs::path(p) : root_path / p;
    std::error_code ec;
    if (fs::is_directory(abs, ec)) {
      for (fs::recursive_directory_iterator it(abs, ec), end;
           it != end && !ec; it.increment(ec)) {
        if (it->is_regular_file(ec) && source_extension(it->path())) {
          out.push_back(
              slashes(fs::relative(it->path(), root_path, ec).string()));
        }
      }
    } else if (fs::is_regular_file(abs, ec)) {
      out.push_back(slashes(fs::relative(abs, root_path, ec).string()));
    } else if (error != nullptr && error->empty()) {
      *error = "no such file or directory: " + abs.string();
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Findings analyze_paths(const std::string& root,
                       const std::vector<std::string>& rel_paths,
                       std::size_t jobs) {
  Findings io_errors;
  std::vector<SourceFile> sources;
  sources.reserve(rel_paths.size());
  for (const std::string& rel : rel_paths) {
    std::ifstream in(std::filesystem::path(root) / rel,
                     std::ios::in | std::ios::binary);
    if (!in) {
      io_errors.push_back({"analyzer-io", rel, 0,
                           "could not read file for analysis", rel});
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    sources.emplace_back(rel, buffer.str());
  }
  Findings all = analyze_sources(sources, jobs);
  all.insert(all.end(), io_errors.begin(), io_errors.end());
  return all;
}

}  // namespace dnsttl::analysis
