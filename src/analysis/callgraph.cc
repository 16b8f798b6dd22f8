#include "analysis/callgraph.h"

#include <algorithm>
#include <cctype>

namespace dnsttl::analysis {

// ------------------------------------------------------- lexical helpers

std::string lower_ascii(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

bool rng_ish_name(const std::string& name) {
  return lower_ascii(name).find("rng") != std::string::npos;
}

const std::set<std::string>& rng_draw_names() {
  static const std::set<std::string> kDraws = {
      "next",   "uniform",   "uniform_int", "chance",        "exponential",
      "normal", "lognormal", "pareto",      "weighted_index"};
  return kDraws;
}

const std::set<std::string>& output_callee_names() {
  static const std::set<std::string> kOutput = {
      "printf",  "fprintf", "render",      "report",        "format",
      "to_string", "write", "schedule_at", "schedule_after"};
  return kOutput;
}

const std::set<std::string>& shard_entry_names() {
  static const std::set<std::string> kShardEntries = {
      "parallel_for_shards", "map_shards",           "ordered_reduce",
      "run_sharded_script",  "run_bailiwick_sharded", "crawl_sharded",
      "run_controlled_ttl_set"};
  return kShardEntries;
}

bool is_member_access(const Token& t) {
  return t.punct(".") || t.punct("->");
}

std::vector<std::size_t> top_level_positions(const FileIndex& ix,
                                             std::size_t begin,
                                             std::size_t end) {
  std::vector<std::size_t> top;
  for (std::size_t j = begin; j < end; ++j) {
    const Token& t = ix.code()[j];
    top.push_back(j);
    if (t.punct("(") || t.punct("[") || t.punct("{")) {
      std::size_t m = ix.match(j);
      if (m == kNpos || m >= end) break;
      top.push_back(m);
      j = m;
    }
  }
  return top;
}

namespace {

/// Word-wise iteration over a space-joined declarator text.
template <typename Fn>
void for_each_word(const std::string& text, Fn fn) {
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(' ', begin);
    if (end == std::string::npos) end = text.size();
    if (end > begin) fn(text.substr(begin, end - begin));
    if (end == text.size()) break;
    begin = end + 1;
  }
}

}  // namespace

bool pool_type_text(const std::string& type_text) {
  bool hit = false;
  for_each_word(type_text, [&](const std::string& word) {
    if (word.size() >= 4 && word.compare(word.size() - 4, 4, "Pool") == 0) {
      hit = true;
    }
    if (word == "TimerWheel" || word == "VpSchedule") hit = true;
  });
  return hit;
}

bool raw_int_type_text(const std::string& type_text) {
  static const std::set<std::string> kIntWords = {
      "int",      "long",     "short",    "unsigned", "signed",
      "size_t",   "int8_t",   "int16_t",  "int32_t",  "int64_t",
      "uint8_t",  "uint16_t", "uint32_t", "uint64_t", "uint_fast8_t",
      "uint_fast16_t", "uint_fast32_t", "uint_fast64_t", "ptrdiff_t"};
  bool any = true;
  bool has_int = false;
  for_each_word(type_text, [&](const std::string& word) {
    if (word == "std" || word == "::" || word == "const" ||
        word == "constexpr" || word == "inline" || word == "static" ||
        word == "volatile") {
      return;
    }
    if (kIntWords.count(word) == 0) {
      any = false;
    } else {
      has_int = true;
    }
  });
  return any && has_int;
}

std::string unit_of_type_text(const std::string& type_text) {
  const char* unit = "";
  std::string prev;
  for_each_word(type_text, [&](const std::string& word) {
    if (word == "Duration" || word == "SimTime" ||
        (word == "Time" && prev == "::")) {
      unit = "us";
    }
    if (word == "Ttl" || word == "WireTtl") unit = "s";
    prev = word;
  });
  return unit;
}

bool draw_site_at(const FileIndex& ix, std::size_t i, std::string* head,
                  const std::set<std::string>* rng_typed) {
  const TokenList& code = ix.code();
  if (i + 1 >= code.size() || i == 0) return false;
  if (code[i].kind != TokenKind::kIdentifier) return false;
  if (rng_draw_names().count(code[i].text) == 0) return false;
  if (!code[i + 1].punct("(")) return false;
  if (!is_member_access(code[i - 1])) return false;

  // Walk the postfix chain backwards: ident, ., ->, (), [] links.
  bool chain_has_rng = false;
  std::string chain_head;
  std::size_t k = i - 1;  // at the '.'/'->'
  while (k > 0) {
    --k;
    const Token& t = code[k];
    if (t.punct(")") || t.punct("]")) {
      std::size_t m = ix.match(k);
      if (m == kNpos || m == 0) break;
      k = m;
      continue;
    }
    if (t.kind == TokenKind::kIdentifier) {
      chain_head = t.text;
      if (rng_ish_name(t.text) ||
          (rng_typed != nullptr && rng_typed->count(t.text) != 0)) {
        chain_has_rng = true;
      }
      // Keep walking only if another chain link precedes this identifier.
      if (k == 0 ||
          (!is_member_access(code[k - 1]) && !code[k - 1].punct("::"))) {
        break;
      }
      continue;
    }
    if (is_member_access(t) || t.punct("::")) continue;
    if (t.ident("this")) {
      chain_head = "this";
      break;
    }
    break;
  }
  if (!chain_has_rng && !rng_ish_name(code[i].text)) return false;
  if (head != nullptr) *head = chain_head;
  return true;
}

std::set<std::string> rng_typed_names(const FileIndex& ix) {
  std::set<std::string> out;
  for (const VarDecl& d : ix.var_decls()) {
    if (d.type_text.find("Rng") != std::string::npos) out.insert(d.name);
  }
  for (const Scope& s : ix.scopes()) {
    if (s.params_open == kNpos) continue;
    for (const Param& p : ix.parse_params(s.params_open)) {
      if (!p.name.empty() && p.type_text.find("Rng") != std::string::npos) {
        out.insert(p.name);
      }
    }
  }
  return out;
}

void collect_lambda_bodies(const FileIndex& ix, std::size_t begin,
                           std::size_t end,
                           std::vector<std::pair<std::size_t, std::size_t>>&
                               bodies) {
  const TokenList& code = ix.code();
  for (std::size_t j = begin; j < end; ++j) {
    if (!code[j].punct("[")) continue;
    std::size_t m = ix.match(j);
    if (m == kNpos || m + 1 >= end) continue;
    std::size_t k = m + 1;
    if (code[k].punct("(")) {
      std::size_t pc = ix.match(k);
      if (pc == kNpos) continue;
      k = pc + 1;
    }
    // Skip specifiers / trailing return, bounded.
    std::size_t guard = 0;
    while (k < end && !code[k].punct("{") && guard++ < 12) ++k;
    if (k >= end || !code[k].punct("{")) continue;
    std::size_t body_close = ix.match(k);
    if (body_close == kNpos) continue;
    bodies.emplace_back(k + 1, body_close);
  }
}

std::set<std::size_t> shard_body_opens(const FileIndex& ix) {
  const TokenList& code = ix.code();
  std::vector<std::pair<std::size_t, std::size_t>> bodies;
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    if (code[i].kind == TokenKind::kIdentifier &&
        shard_entry_names().count(code[i].text) != 0 &&
        code[i + 1].punct("(")) {
      std::size_t close = ix.match(i + 1);
      if (close != kNpos) collect_lambda_bodies(ix, i + 2, close, bodies);
    }
    // Lambdas bound to ShardScript/EnvFactory variables are shard bodies
    // too: `ShardScript script = [...](...) { ... };`
    if ((code[i].ident("ShardScript") || code[i].ident("EnvFactory")) &&
        i + 3 < code.size() &&
        code[i + 1].kind == TokenKind::kIdentifier &&
        code[i + 2].punct("=") && code[i + 3].punct("[")) {
      std::size_t stmt_end = i + 3;
      while (stmt_end < code.size() && !code[stmt_end].punct(";")) {
        if (code[stmt_end].punct("{")) {
          std::size_t m = ix.match(stmt_end);
          if (m == kNpos) break;
          stmt_end = m;
        }
        ++stmt_end;
      }
      collect_lambda_bodies(ix, i + 3, stmt_end, bodies);
    }
  }
  std::set<std::size_t> opens;
  for (const auto& [body_begin, body_end] : bodies) {
    (void)body_end;
    opens.insert(body_begin - 1);  // the '{' itself
  }
  return opens;
}

// ---------------------------------------------------- summary extraction

namespace {

bool unit_type_name(const std::string& s) {
  return s == "Duration" || s == "SimTime" || s == "Ttl" || s == "WireTtl";
}

// Identifiers that can precede '(' without being a callee.
bool non_callee_keyword(const std::string& s) {
  return s == "if" || s == "for" || s == "while" || s == "switch" ||
         s == "catch" || s == "return" || s == "sizeof" || s == "alignof" ||
         s == "decltype" || s == "noexcept" || s == "static_assert" ||
         s == "assert" || s == "defined" || s == "throw" ||
         s == "co_return" || s == "co_await" || s == "co_yield";
}

// Statement keywords after which `ident (` is still a call, not a
// `Type name(args)` declaration.
bool call_context_keyword(const std::string& s) {
  return s == "return" || s == "else" || s == "do" || s == "case" ||
         s == "goto" || s == "new" || s == "delete" || s == "throw" ||
         s == "co_return" || s == "co_await" || s == "co_yield";
}

// Identifiers never picked as an argument head (cast/forwarding plumbing
// and the raw integer type words that appear inside cast angle brackets).
bool never_a_head(const std::string& s) {
  static const std::set<std::string> kSkip = {
      "std",   "move", "forward", "ref",  "cref", "get",
      "static_cast",   "const_cast",      "reinterpret_cast",
      "dynamic_cast",  "sizeof",  "auto", "const", "constexpr",
      "unsigned",      "signed"};
  if (kSkip.count(s) != 0) return true;
  return raw_int_type_text(s);
}

struct Extractor {
  const FileIndex& ix;
  const std::string& rel;
  const std::set<std::string> rng_typed;
  const std::set<std::size_t> shard_opens;

  Extractor(const FileIndex& index, const std::string& rel_path)
      : ix(index),
        rel(rel_path),
        rng_typed(rng_typed_names(index)),
        shard_opens(shard_body_opens(index)) {}

  const TokenList& code() const { return ix.code(); }

  /// Child function/lambda extents directly or transitively inside `s`;
  /// tokens in these ranges belong to the nested summary, not to `s`.
  std::vector<std::pair<std::size_t, std::size_t>> child_ranges(
      const Scope& s) const {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    for (const Scope& t : ix.scopes()) {
      if (&t == &s) continue;
      if (t.kind != ScopeKind::kFunction && t.kind != ScopeKind::kLambda) {
        continue;
      }
      if (t.open > s.open && t.close != kNpos && t.close < s.close) {
        out.emplace_back(t.open, t.close);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  static bool in_ranges(
      const std::vector<std::pair<std::size_t, std::size_t>>& ranges,
      std::size_t i) {
    for (const auto& [b, e] : ranges) {
      if (i >= b && i <= e) return true;
    }
    return false;
  }

  void fill_name(const Scope& s, FunctionSummary& fn) const {
    if (s.kind == ScopeKind::kLambda) {
      fn.name = "<lambda>";
      fn.is_lambda = true;
      return;
    }
    if (s.params_open == kNpos || s.params_open == 0) return;
    const Token& nm = code()[s.params_open - 1];
    if (nm.kind != TokenKind::kIdentifier) return;  // operator etc.
    fn.name = nm.text;
    std::string prefix;
    std::size_t k = s.params_open - 1;
    while (k >= 2 && code()[k - 1].punct("::") &&
           code()[k - 2].kind == TokenKind::kIdentifier) {
      prefix = code()[k - 2].text + "::" + prefix;
      k -= 2;
    }
    fn.qual = prefix + fn.name;
  }

  std::vector<ParamFacts> fill_params(const Scope& s) const {
    std::vector<ParamFacts> out;
    if (s.params_open == kNpos) return out;
    for (const Param& p : ix.parse_params(s.params_open)) {
      if (p.name.empty()) {
        // Unnamed parameter: keep the slot so argument positions line up.
        ParamFacts facts;
        facts.type_text = p.type_text;
        out.push_back(std::move(facts));
        continue;
      }
      ParamFacts facts;
      facts.name = p.name;
      facts.type_text = p.type_text;
      for_each_word(p.type_text, [&](const std::string& word) {
        if (word == "&" || word == "&&") facts.by_ref = true;
        if (word == "*") facts.by_ptr = true;
        if (word == "const") facts.is_const = true;
      });
      facts.rng = p.type_text.find("Rng") != std::string::npos;
      facts.pool = pool_type_text(p.type_text);
      facts.unordered =
          p.type_text.find("unordered_") != std::string::npos;
      facts.raw_int = raw_int_type_text(p.type_text);
      facts.unit = !unit_of_type_text(p.type_text).empty();
      out.push_back(std::move(facts));
    }
    return out;
  }

  /// Extents of range-for loops over unordered containers inside the body.
  std::vector<std::pair<std::size_t, std::size_t>> unordered_loops(
      std::size_t begin, std::size_t end,
      const std::vector<std::pair<std::size_t, std::size_t>>& skip) const {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    for (std::size_t i = begin; i + 1 < end; ++i) {
      if (in_ranges(skip, i)) continue;
      if (!code()[i].ident("for") || !code()[i + 1].punct("(")) continue;
      std::size_t open = i + 1;
      std::size_t close = ix.match(open);
      if (close == kNpos || close >= end) continue;
      std::size_t colon = kNpos;
      for (std::size_t k : top_level_positions(ix, open + 1, close)) {
        if (code()[k].punct(":")) {
          colon = k;
          break;
        }
      }
      if (colon == kNpos) continue;
      bool unordered = false;
      for (std::size_t k = colon + 1; k < close; ++k) {
        const Token& t = code()[k];
        if (t.kind != TokenKind::kIdentifier) continue;
        if (ix.unordered_names().count(t.text) != 0 ||
            t.text.rfind("unordered_", 0) == 0) {
          unordered = true;
          break;
        }
      }
      if (!unordered) continue;
      std::size_t body_begin = close + 1;
      std::size_t body_end;
      if (body_begin < end && code()[body_begin].punct("{")) {
        body_end = ix.match(body_begin);
        if (body_end == kNpos) continue;
        ++body_begin;
      } else {
        body_end = body_begin;
        while (body_end < end && !code()[body_end].punct(";")) ++body_end;
      }
      out.emplace_back(body_begin, body_end);
    }
    return out;
  }

  /// One argument extent [begin, end) -> CallArg.
  CallArg parse_arg(std::size_t begin, std::size_t end) const {
    CallArg arg;
    bool saw_number = false;
    // Pass 1 (all tokens): fork / literal detection.
    for (std::size_t k = begin; k < end; ++k) {
      const Token& t = code()[k];
      if (t.kind == TokenKind::kNumber) saw_number = true;
      if (t.ident("fork") && k > begin && is_member_access(code()[k - 1])) {
        arg.forked = true;
      }
    }
    // Pass 2 (top level, nested call extents hopped): head selection.
    for (std::size_t k = begin; k < end; ++k) {
      const Token& t = code()[k];
      if (t.punct("(") || t.punct("[") || t.punct("{")) {
        std::size_t m = ix.match(k);
        if (m == kNpos || m >= end) break;
        k = m;
        continue;
      }
      if (k == begin && t.punct("&")) arg.address_of = true;
      if (t.kind != TokenKind::kIdentifier) continue;
      if (k + 1 < end &&
          (code()[k + 1].punct("(") || code()[k + 1].punct("::"))) {
        continue;  // callee or namespace qualifier, not a value head
      }
      if (never_a_head(t.text)) continue;
      arg.head = t.text;
      break;
    }
    if (arg.head.empty() && saw_number) arg.is_literal = true;
    return arg;
  }

  std::vector<CallArg> parse_args(std::size_t open) const {
    std::vector<CallArg> args;
    std::size_t close = ix.match(open);
    if (close == kNpos) return args;
    if (open + 1 == close) return args;  // zero-arg call
    std::size_t item = open + 1;
    for (std::size_t k : top_level_positions(ix, open + 1, close)) {
      if (code()[k].punct(",")) {
        args.push_back(parse_arg(item, k));
        item = k + 1;
      }
    }
    args.push_back(parse_arg(item, close));
    return args;
  }

  FunctionSummary summarize(const Scope& s) const {
    FunctionSummary fn;
    fn.file = rel;
    fn.line = code()[s.open].line;
    fill_name(s, fn);
    fn.is_shard_body = shard_opens.count(s.open) != 0;
    fn.params = fill_params(s);
    for (const ParamFacts& p : fn.params) {
      if (!p.name.empty()) fn.locals.insert(p.name);
    }

    const std::size_t begin = s.open + 1;
    const std::size_t end = s.close;
    const auto skip = child_ranges(s);

    // Locals declared in the body (block scopes included, nested
    // functions/lambdas excluded).
    for (const VarDecl& d : ix.var_decls()) {
      if (d.name_idx <= s.open || d.name_idx >= end) continue;
      if (in_ranges(skip, d.name_idx)) continue;
      fn.locals.insert(d.name);
      if (d.type_text.find("Rng") != std::string::npos) {
        fn.rng_locals.insert(d.name);
        for (std::size_t k = d.name_idx;
             k < code().size() && !code()[k].punct(";"); ++k) {
          if (code()[k].ident("fork")) {
            fn.forked.insert(d.name);
            break;
          }
        }
      }
      if (raw_int_type_text(d.type_text)) fn.raw_int_locals.insert(d.name);
    }

    const auto loops = unordered_loops(begin, end, skip);
    fn.has_unordered_loop = !loops.empty();

    const std::set<std::string> param_names = [&] {
      std::set<std::string> names;
      for (const ParamFacts& p : fn.params) {
        if (!p.name.empty()) names.insert(p.name);
      }
      return names;
    }();

    for (std::size_t j = begin; j < end; ++j) {
      if (in_ranges(skip, j)) continue;
      const Token& t = code()[j];

      // Draw sites.
      std::string head;
      if (draw_site_at(ix, j, &head, &rng_typed)) {
        fn.draws_from.insert(head.empty() ? "<expr>" : head);
      }

      // Output sinks (direct).
      if (t.punct("<<")) fn.writes_output = true;
      if (t.kind == TokenKind::kIdentifier &&
          output_callee_names().count(t.text) != 0 && j + 1 < end &&
          code()[j + 1].punct("(")) {
        fn.writes_output = true;
      }

      // `return &local` escapes.
      if (t.ident("return") && j + 2 < end && code()[j + 1].punct("&") &&
          code()[j + 2].kind == TokenKind::kIdentifier &&
          fn.locals.count(code()[j + 2].text) != 0) {
        fn.escaped_locals.push_back(
            {code()[j + 2].text, code()[j + 2].line, true});
      }

      // Param mutation.
      if (t.kind == TokenKind::kIdentifier &&
          param_names.count(t.text) != 0) {
        static const std::set<std::string> kMutOps = {
            "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--"};
        const bool next_mutates =
            j + 1 < end && code()[j + 1].kind == TokenKind::kPunct &&
            kMutOps.count(code()[j + 1].text) != 0;
        const bool prev_mutates =
            j > begin && (code()[j - 1].punct("++") ||
                          code()[j - 1].punct("--"));
        if (next_mutates || prev_mutates) {
          for (ParamFacts& p : fn.params) {
            if (p.name == t.text) p.mutated = true;
          }
        }
      }

      // Assignments whose target is not a local: stored params + escaped
      // locals.
      if (t.punct("=")) scan_assignment(s, fn, j);

      // Unit-type brace construction: `Duration{expr}`.
      if (t.kind == TokenKind::kIdentifier && unit_type_name(t.text) &&
          j + 1 < end && code()[j + 1].punct("{")) {
        for (const CallArg& arg : parse_args(j + 1)) {
          if (!arg.head.empty() && param_names.count(arg.head) != 0) {
            fn.unit_ctor_flow.insert(arg.head);
          }
        }
      }

      // Call sites.
      if (t.kind != TokenKind::kIdentifier || j + 1 >= end ||
          !code()[j + 1].punct("(")) {
        continue;
      }
      if (non_callee_keyword(t.text)) continue;
      if (j > 0) {
        const Token& prev = code()[j - 1];
        // `Type name(args)` declarations are not calls.
        if (prev.kind == TokenKind::kIdentifier &&
            !call_context_keyword(prev.text)) {
          continue;
        }
      }
      CallSite call;
      call.callee = t.text;
      call.line = t.line;
      if (j >= 2 && code()[j - 1].punct("::") &&
          code()[j - 2].kind == TokenKind::kIdentifier) {
        call.qualifier = code()[j - 2].text;
      } else if (j >= 1 && is_member_access(code()[j - 1])) {
        call.member_call = true;
        // Walk the receiver chain back to its head identifier.
        std::size_t k = j - 1;
        while (k > 0) {
          --k;
          const Token& r = code()[k];
          if (r.punct(")") || r.punct("]")) {
            std::size_t m = ix.match(k);
            if (m == kNpos || m == 0) break;
            k = m;
            continue;
          }
          if (r.kind == TokenKind::kIdentifier) {
            call.qualifier = r.text;
            if (k == 0 || (!is_member_access(code()[k - 1]) &&
                           !code()[k - 1].punct("::"))) {
              break;
            }
            continue;
          }
          if (is_member_access(r) || r.punct("::")) continue;
          break;
        }
      }
      call.args = parse_args(j + 1);
      for (const auto& [lb, le] : loops) {
        if (j >= lb && j < le) {
          call.in_unordered_loop = true;
          break;
        }
      }

      // Lexical unit-construction flow: Duration(x) / Duration::micros(x)
      // / dns::Ttl(x) mark params feeding the construction.
      if (unit_type_name(call.callee) || unit_type_name(call.qualifier)) {
        for (const CallArg& arg : call.args) {
          if (!arg.head.empty() && param_names.count(arg.head) != 0) {
            fn.unit_ctor_flow.insert(arg.head);
          }
        }
      }

      // Container stores on non-local receivers: `sink_.push_back(&x)`.
      static const std::set<std::string> kStoreCallees = {
          "push_back", "emplace_back", "insert", "emplace", "push"};
      if (call.member_call && kStoreCallees.count(call.callee) != 0 &&
          !call.qualifier.empty() &&
          fn.locals.count(call.qualifier) == 0) {
        for (const CallArg& arg : call.args) {
          if (arg.head.empty()) continue;
          if (arg.address_of && fn.locals.count(arg.head) != 0) {
            fn.escaped_locals.push_back({arg.head, call.line, false});
          }
          for (const ParamFacts& p : fn.params) {
            if (p.name != arg.head) continue;
            if ((p.by_ptr && !arg.address_of) ||
                ((p.by_ref || p.by_ptr) && arg.address_of)) {
              fn.stored_params.insert(p.name);
            }
          }
        }
      }

      fn.calls.push_back(std::move(call));
    }
    return fn;
  }

  /// `=` at code-token j: if the assignment target is not a function
  /// local, record by-ref/pointer params stored through it and locals
  /// whose address escapes into it.
  void scan_assignment(const Scope& s, FunctionSummary& fn,
                       std::size_t j) const {
    // Statement start: nearest ';' '{' '}' walking back (extents hopped).
    std::size_t start = j;
    while (start > s.open) {
      --start;
      const Token& t = code()[start];
      if (t.punct(")") || t.punct("]")) {
        std::size_t m = ix.match(start);
        if (m == kNpos || m == 0) break;
        start = m;
        continue;
      }
      if (t.punct(";") || t.punct("{") || t.punct("}")) {
        ++start;
        break;
      }
    }
    // A declaration's `=` initializes a local: never a non-local store.
    for (const VarDecl& d : ix.var_decls()) {
      if (d.name_idx >= start && d.name_idx < j) return;
    }
    // LHS head: first non-qualifier identifier.
    std::string lhs;
    for (std::size_t k = start; k < j; ++k) {
      const Token& t = code()[k];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (t.text == "const" || t.text == "constexpr" || t.text == "auto" ||
          t.text == "static") {
        continue;
      }
      lhs = t.text;
      break;
    }
    if (lhs.empty() || fn.locals.count(lhs) != 0) return;
    // RHS scan to ';'.
    std::size_t k = j + 1;
    while (k < s.close && !code()[k].punct(";")) {
      const Token& t = code()[k];
      if (t.punct("&") && k + 1 < s.close &&
          code()[k + 1].kind == TokenKind::kIdentifier &&
          (k == j + 1 || code()[k - 1].kind == TokenKind::kPunct)) {
        const std::string& name = code()[k + 1].text;
        if (fn.locals.count(name) != 0) {
          bool is_ref_param = false;
          for (const ParamFacts& p : fn.params) {
            if (p.name == name && (p.by_ref || p.by_ptr)) {
              is_ref_param = true;
            }
          }
          if (is_ref_param) {
            fn.stored_params.insert(name);
          } else {
            fn.escaped_locals.push_back({name, code()[k + 1].line, false});
          }
        }
      }
      if (t.kind == TokenKind::kIdentifier) {
        for (const ParamFacts& p : fn.params) {
          if (p.name != t.text || !p.by_ptr) continue;
          const bool deref =
              k > j + 1 && (code()[k - 1].punct("*") ||
                            code()[k - 1].punct("&"));
          const bool projected =
              k + 1 < s.close && (code()[k + 1].punct("->") ||
                                  code()[k + 1].punct(".") ||
                                  code()[k + 1].punct("["));
          if (!deref && !projected) fn.stored_params.insert(p.name);
        }
      }
      ++k;
    }
  }
};

}  // namespace

FileSummary summarize_file(const FileIndex& ix, const std::string& rel_path) {
  FileSummary out;
  out.path = rel_path;
  out.allow_lines = ix.allow_lines();
  out.allow_sites = ix.allow_sites();
  Extractor extractor(ix, rel_path);
  for (const Scope& s : ix.scopes()) {
    if (s.kind != ScopeKind::kFunction && s.kind != ScopeKind::kLambda) {
      continue;
    }
    if (s.close == kNpos) continue;
    out.functions.push_back(extractor.summarize(s));
  }
  return out;
}

// ------------------------------------------------------------ call graph

CallGraph::CallGraph(const std::vector<FileSummary>& files) {
  for (const FileSummary& file : files) {
    for (const FunctionSummary& fn : file.functions) {
      const std::size_t id = nodes_.size();
      nodes_.push_back(&fn);
      if (!fn.name.empty() && !fn.is_lambda) {
        by_name_[fn.name].push_back(id);
      }
    }
  }
}

std::vector<std::size_t> CallGraph::resolve(const CallSite& call) const {
  static const std::set<std::string> kExternalQuals = {
      "std", "chrono", "filesystem", "fs", "gtest", "testing"};
  if (call.callee.empty()) return {};
  if (!call.member_call && kExternalQuals.count(call.qualifier) != 0) {
    return {};
  }
  auto it = by_name_.find(call.callee);
  if (it == by_name_.end()) return {};
  std::vector<std::size_t> candidates;
  for (std::size_t id : it->second) {
    if (nodes_[id]->params.size() >= call.args.size()) {
      candidates.push_back(id);
    }
  }
  if (!call.qualifier.empty() && !call.member_call) {
    std::vector<std::size_t> qualified;
    const std::string want = call.qualifier + "::" + call.callee;
    for (std::size_t id : candidates) {
      if (nodes_[id]->qual == want) qualified.push_back(id);
    }
    if (!qualified.empty()) return qualified;
  }
  return candidates;
}

}  // namespace dnsttl::analysis
