#pragma once

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

/// \file lint_core.hpp
/// The dualrad determinism linter: a token/line-based static checker for the
/// project's determinism ruleset.
///
/// Every correctness claim this repository makes rests on SimResults being
/// bit-identical across the reference engine, the CSR engine, and every
/// thread count (pinned in test_engine_equivalence). The runtime equivalence
/// tests catch violations *after* they happen; this linter refuses the
/// classic sources of nondeterminism before the code ever runs:
///
///   raw-random             rand()/std::random_device/<random> outside
///                          core/rng.hpp and obs/ — all engine randomness
///                          must flow through the counter-based CounterRng /
///                          StreamRng so draws are pure in (seed, round).
///   wall-clock             time()/clock()/system_clock in result-affecting
///                          paths — wall time may only be observed
///                          out-of-band (obs/, serve/, timing columns).
///   unordered-iter         iteration over std::unordered_{map,set} in
///                          result-affecting paths — bucket order depends on
///                          libstdc++ version, seed and allocation history.
///   ptr-key-order          std::map/std::set keyed on pointers (or
///                          std::less over pointers) — address order changes
///                          run to run under ASLR.
///   fp-accumulate          += / -= / *= on float/double in engine hot
///                          paths — reassociation under different shard
///                          splits changes low bits.
///   thread-detach          naked std::thread::detach() — detached threads
///                          outlive their data and cannot be flushed at
///                          checkpoint time.
///   checkpoint-durability  serve/checkpoint.* must keep the whole-line
///                          O_APPEND + fsync discipline and never write
///                          through buffered streams.
///   unbounded-retry        raw sleep primitives in src/serve/ — every wait
///                          in the serve stack must be a bounded, jittered
///                          backoff (or a cooperative stop-checking wait),
///                          never a naked sleep inside a retry loop.
///   lenient-parse          std::sto* / ato* / strto* under src/, tools/
///                          and bench/ — they skip whitespace, wrap a sign
///                          on unsigned types and stop at junk, so a
///                          malformed field from disk, the wire or the
///                          command line parses as a plausible value.
///
/// Deliberately lightweight: a comment/string-stripping scanner plus a small
/// amount of per-file identifier tracking — no libclang, no build, runs over
/// the whole tree in milliseconds so it can gate CI before the first compile.
///
/// Escapes: a justified annotation on the offending line (e.g.
/// `// lint: ordered-ok (membership only, never iterated)`) or an entry in
/// tools/lint_allow.txt (`<rule-id> <path-suffix>` per line) for
/// grandfathered hits. Rules marked without an annotation token accept only
/// the allowlist.

namespace dualrad::lint {

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

struct Rule {
  std::string_view id;
  /// Annotation token that silences the rule on the offending raw line
  /// (matched as a substring, e.g. "lint: ordered-ok"); empty = allowlist
  /// only.
  std::string_view annotation;
  std::string_view summary;
  std::string_view rationale;
  std::string_view hint;
};

inline const std::vector<Rule>& rules() {
  static const std::vector<Rule> table = {
      {"raw-random", "",
       "raw randomness source outside core/rng.hpp and obs/",
       "engine randomness must be a pure function of (seed, round, salt) so "
       "trials replay bit-identically; rand()/std::random_device/<random> "
       "draw from hidden global state",
       "route the draw through CounterRng/StreamRng (core/rng.hpp), seeded "
       "from the trial seed stream"},
      {"wall-clock", "lint: wallclock-ok",
       "wall-clock read in a result-affecting path",
       "time()/clock()/system_clock values differ across runs and machines, "
       "so any result derived from them breaks the bit-identity contract",
       "use std::chrono::steady_clock, keep the measurement out-of-band "
       "(obs/ telemetry, the --timing wall_us column), or annotate with "
       "'// lint: wallclock-ok (<why it cannot affect results>)'"},
      {"unordered-iter", "lint: ordered-ok",
       "iteration over an unordered container in a result-affecting path",
       "unordered_{map,set} bucket order depends on the standard library "
       "version, hash seed and insertion history — iterating one feeds "
       "nondeterministic order into results",
       "iterate a sorted copy / a parallel vector, switch to std::map, or "
       "annotate with '// lint: ordered-ok (<why order cannot leak>)'"},
      {"ptr-key-order", "lint: ordered-ok",
       "pointer-keyed ordered container or pointer comparator",
       "pointer order is allocation order under ASLR: two identical runs "
       "disagree, so any iteration or min/max over it is nondeterministic",
       "key the container by a stable id (NodeId, scenario name, index) "
       "instead of an address"},
      {"fp-accumulate", "lint: fp-ok",
       "floating-point accumulation in an engine hot path",
       "float/double addition is non-associative; a different shard split or "
       "vectorization width changes the low bits, which the byte-identity "
       "pins would surface as corruption",
       "accumulate in integers where possible, or annotate with "
       "'// lint: fp-ok (<why the order is fixed>)' when the reduction "
       "order is deterministic"},
      {"thread-detach", "",
       "naked std::thread::detach()",
       "a detached thread cannot be joined at shutdown, keeps mutating after "
       "main() starts tearing down, and is invisible to checkpoint flushes",
       "keep the std::thread joinable and join it on every exit path "
       "(see obs::Heartbeat for the stop-flag + join pattern)"},
      {"checkpoint-durability", "lint: durability-ok",
       "checkpoint write path violating the O_APPEND+fsync discipline",
       "crash-safe resume needs whole-line O_APPEND appends with explicit "
       "fsync; buffered streams tear lines on kill -9 and lose the torn-tail "
       "recovery guarantee",
       "write through JournalWriter (::write on an O_APPEND fd, fsync per "
       "line); never std::ofstream/fopen/fprintf in serve/checkpoint.*"},
      {"unbounded-retry", "lint: backoff-ok",
       "raw sleep primitive in the serve stack",
       "a naked sleep inside a reconnect/poll loop is an unbounded retry: no "
       "exponential backoff, no jitter, no stop-flag check — workers hammer "
       "a dead coordinator in lockstep and ignore shutdown",
       "wait via sleep_checking_stop with a reconnect_backoff_delay (bounded "
       "exponential + deterministic jitter), or annotate the primitive with "
       "'// lint: backoff-ok (<why the wait is bounded>)'"},
      {"lenient-parse", "lint: parse-ok",
       "lenient number parsing under src/, tools/ or bench/",
       "std::sto*/ato*/strto* skip leading whitespace, accept a sign on "
       "unsigned types (wrapping -1 to 2^64-1) and stop at trailing junk, so "
       "a malformed field from disk, the wire or a command-line flag becomes "
       "a plausible value instead of an error",
       "parse the whole field with std::from_chars (jsonl::to_int in "
       "campaign/jsonl.hpp), or annotate with "
       "'// lint: parse-ok (<why leniency is harmless>)'"},
  };
  return table;
}

inline const Rule* find_rule(std::string_view id) {
  for (const Rule& r : rules()) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Findings and allowlist
// ---------------------------------------------------------------------------

struct Finding {
  std::string rule;
  std::string path;
  std::size_t line = 0;  ///< 1-based
  std::string message;
  bool allowed = false;  ///< matched tools/lint_allow.txt
};

struct AllowEntry {
  std::string rule;  ///< "*" matches every rule
  std::string path_suffix;
};

/// Parse the allowlist format: one `<rule-id> <path-suffix>` pair per line,
/// '#' starts a comment, blank lines ignored. Unknown rule ids are kept —
/// they match nothing, and the CLI warns about them.
inline std::vector<AllowEntry> parse_allowlist(std::string_view text) {
  std::vector<AllowEntry> entries;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t nl = text.find('\n', begin);
    std::string_view line = text.substr(
        begin, (nl == std::string_view::npos ? text.size() : nl) - begin);
    begin = (nl == std::string_view::npos) ? text.size() + 1 : nl + 1;
    if (const std::size_t hash = line.find('#'); hash != std::string_view::npos)
      line = line.substr(0, hash);
    std::vector<std::string> tokens;
    std::size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() &&
             std::isspace(static_cast<unsigned char>(line[i])) != 0)
        ++i;
      const std::size_t start = i;
      while (i < line.size() &&
             std::isspace(static_cast<unsigned char>(line[i])) == 0)
        ++i;
      if (i > start) tokens.emplace_back(line.substr(start, i - start));
    }
    if (tokens.empty()) continue;
    AllowEntry e;
    e.rule = tokens[0];
    if (tokens.size() >= 2) e.path_suffix = tokens[1];
    entries.push_back(std::move(e));
  }
  return entries;
}

inline bool allow_matches(const AllowEntry& e, std::string_view rule,
                          std::string_view path) {
  if (e.rule != "*" && e.rule != rule) return false;
  if (e.path_suffix.empty()) return true;
  return path.size() >= e.path_suffix.size() &&
         path.substr(path.size() - e.path_suffix.size()) == e.path_suffix;
}

// ---------------------------------------------------------------------------
// Source model: comment/string stripping
// ---------------------------------------------------------------------------

struct SourceLine {
  std::string code;  ///< comments and string/char literal bodies blanked
  std::string raw;   ///< verbatim, used for `// lint: ...-ok` annotations
};

/// Split a translation unit into lines, blanking comments and the *bodies*
/// of string/char literals in the `code` view (quotes are kept so token
/// boundaries survive). Handles line and block comments, escape sequences,
/// and raw string literals R"delim(...)delim". The `raw` view is untouched.
inline std::vector<SourceLine> split_source(std::string_view text) {
  std::vector<SourceLine> lines;
  enum class State { Code, Line, Block, Str, Chr, Raw };
  State state = State::Code;
  std::string raw_delim;  // for Raw: ")delim\"" to search for
  std::string code, raw;
  auto flush = [&] {
    lines.push_back(SourceLine{code, raw});
    code.clear();
    raw.clear();
  };
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::Line) state = State::Code;
      // Unterminated string/char literals do not span lines.
      if (state == State::Str || state == State::Chr) state = State::Code;
      flush();
      continue;
    }
    raw.push_back(c);
    switch (state) {
      case State::Code:
        if (c == '/' && next == '/') {
          state = State::Line;
          code.push_back(' ');
        } else if (c == '/' && next == '*') {
          state = State::Block;
          code.push_back(' ');
          raw.push_back(next);
          code.push_back(' ');
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (std::isalnum(static_cast<unsigned char>(
                                   text[i - 1])) == 0 &&
                               text[i - 1] != '_'))) {
          // R"delim( ... )delim"
          std::size_t j = i + 2;
          std::string delim;
          while (j < text.size() && text[j] != '(' && text[j] != '\n') {
            delim.push_back(text[j]);
            ++j;
          }
          raw_delim = ")" + delim + "\"";
          state = State::Raw;
          code.push_back('"');
          // Copy the delimiter + '(' into raw, blank in code.
          for (std::size_t k = i + 1; k < j + 1 && k < text.size(); ++k) {
            raw.push_back(text[k]);
            code.push_back(' ');
          }
          i = j;  // at '(' (or line end)
        } else if (c == '"') {
          state = State::Str;
          code.push_back('"');
        } else if (c == '\'') {
          state = State::Chr;
          code.push_back('\'');
        } else {
          code.push_back(c);
        }
        break;
      case State::Line:
        code.push_back(' ');
        break;
      case State::Block:
        if (c == '*' && next == '/') {
          state = State::Code;
          raw.push_back(next);
          code.push_back(' ');
          code.push_back(' ');
          ++i;
        } else {
          code.push_back(' ');
        }
        break;
      case State::Str:
        if (c == '\\' && next != '\0' && next != '\n') {
          raw.push_back(next);
          code.push_back(' ');
          code.push_back(' ');
          ++i;
        } else if (c == '"') {
          state = State::Code;
          code.push_back('"');
        } else {
          code.push_back(' ');
        }
        break;
      case State::Chr:
        if (c == '\\' && next != '\0' && next != '\n') {
          raw.push_back(next);
          code.push_back(' ');
          code.push_back(' ');
          ++i;
        } else if (c == '\'') {
          state = State::Code;
          code.push_back('\'');
        } else {
          code.push_back(' ');
        }
        break;
      case State::Raw:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          // Copy the closing delimiter; we already pushed text[i] into raw.
          for (std::size_t k = 1; k < raw_delim.size(); ++k) {
            raw.push_back(text[i + k]);
            code.push_back(' ');
          }
          code.push_back('"');
          i += raw_delim.size() - 1;
          state = State::Code;
        } else {
          code.push_back(' ');
        }
        break;
    }
  }
  if (!code.empty() || !raw.empty()) flush();
  return lines;
}

// --- token helpers ---------------------------------------------------------

inline bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Find `token` in `code` at a position where it is not part of a larger
/// identifier. Returns npos if absent.
inline std::size_t find_token(std::string_view code, std::string_view token,
                              std::size_t from = 0) {
  for (std::size_t pos = code.find(token, from);
       pos != std::string_view::npos; pos = code.find(token, pos + 1)) {
    const bool left_ok = pos == 0 || !ident_char(code[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= code.size() || !ident_char(code[end]);
    if (left_ok && right_ok) return pos;
  }
  return std::string_view::npos;
}

/// True when `code` contains a call of `name` — the token followed by an
/// optional run of spaces and an opening parenthesis.
inline bool has_call(std::string_view code, std::string_view name) {
  for (std::size_t pos = find_token(code, name); pos != std::string_view::npos;
       pos = find_token(code, name, pos + 1)) {
    std::size_t j = pos + name.size();
    while (j < code.size() && code[j] == ' ') ++j;
    if (j < code.size() && code[j] == '(') return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Path classification
// ---------------------------------------------------------------------------

/// Directories whose code feeds exported results (SimResult, trial rows,
/// summaries): determinism rules apply in full.
inline bool is_result_path(std::string_view path) {
  static constexpr std::string_view kDirs[] = {
      "src/core/",       "src/adversary/", "src/algorithms/",
      "src/graph/",      "src/mac/",       "src/campaign/",
      "src/selectors/",  "src/lowerbound/", "src/interference/",
      "src/repeated/",   "src/stats/"};
  for (const std::string_view d : kDirs) {
    if (path.rfind(d, 0) == 0) return true;
  }
  return false;
}

/// Engine hot paths where fp accumulation order could differ across shard
/// splits.
inline bool is_hot_path(std::string_view path) {
  static constexpr std::string_view kDirs[] = {
      "src/core/", "src/adversary/", "src/algorithms/", "src/graph/",
      "src/mac/"};
  for (const std::string_view d : kDirs) {
    if (path.rfind(d, 0) == 0) return true;
  }
  return false;
}

/// Paths allowed to hold raw randomness: the deterministic RNG itself and
/// the out-of-band observability layer.
inline bool is_random_exempt(std::string_view path) {
  return path == "src/core/rng.hpp" || path.rfind("src/obs/", 0) == 0;
}

inline bool is_checkpoint_path(std::string_view path) {
  return path.find("serve/checkpoint") != std::string_view::npos;
}

// ---------------------------------------------------------------------------
// The linter
// ---------------------------------------------------------------------------

class Linter {
 public:
  void set_allowlist(std::vector<AllowEntry> entries) {
    allow_ = std::move(entries);
  }

  /// Lint one file's contents under its repo-relative path (forward
  /// slashes). Appends to findings().
  void lint_file(std::string_view path, std::string_view text) {
    const std::vector<SourceLine> lines = split_source(text);
    check_raw_random(path, lines);
    check_wall_clock(path, lines);
    check_unordered_iter(path, lines);
    check_ptr_key_order(path, lines);
    check_fp_accumulate(path, lines);
    check_thread_detach(path, lines);
    check_checkpoint_durability(path, lines);
    check_unbounded_retry(path, lines);
    check_lenient_parse(path, lines);
  }

  [[nodiscard]] const std::vector<Finding>& findings() const {
    return findings_;
  }

  [[nodiscard]] std::size_t unallowed_count() const {
    std::size_t n = 0;
    for (const Finding& f : findings_) {
      if (!f.allowed) ++n;
    }
    return n;
  }

 private:
  /// Record a finding at `lines[line - 1]` unless the rule's annotation
  /// token appears on that raw line or the one immediately above it.
  void report(std::string_view rule, std::string_view path, std::size_t line,
              const std::vector<SourceLine>& lines, std::string message) {
    const Rule* r = find_rule(rule);
    if (r != nullptr && !r->annotation.empty() && line >= 1) {
      const std::string& here = lines[line - 1].raw;
      if (here.find(r->annotation) != std::string::npos) return;
      if (line >= 2 &&
          lines[line - 2].raw.find(r->annotation) != std::string::npos) {
        return;
      }
    }
    Finding f;
    f.rule = std::string(rule);
    f.path = std::string(path);
    f.line = line;
    f.message = std::move(message);
    for (const AllowEntry& e : allow_) {
      if (allow_matches(e, rule, path)) {
        f.allowed = true;
        break;
      }
    }
    findings_.push_back(std::move(f));
  }

  // --- raw-random ----------------------------------------------------------

  void check_raw_random(std::string_view path,
                        const std::vector<SourceLine>& lines) {
    if (path.rfind("src/", 0) != 0 || is_random_exempt(path)) return;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string& code = lines[i].code;
      const char* what = nullptr;
      if (has_call(code, "rand") || has_call(code, "srand") ||
          has_call(code, "random") || has_call(code, "srandom") ||
          has_call(code, "drand48")) {
        what = "C library rand()";
      } else if (code.find("std::random_device") != std::string::npos) {
        what = "std::random_device";
      } else if (find_token(code, "mt19937") != std::string::npos ||
                 find_token(code, "mt19937_64") != std::string::npos) {
        what = "std::mt19937";
      } else if (code.find("include") != std::string::npos &&
                 code.find("<random>") != std::string::npos) {
        what = "#include <random>";
      }
      if (what != nullptr) {
        report("raw-random", path, i + 1, lines,
               std::string(what) + " outside core/rng.hpp");
      }
    }
  }

  // --- wall-clock ----------------------------------------------------------

  void check_wall_clock(std::string_view path,
                        const std::vector<SourceLine>& lines) {
    if (!is_result_path(path)) return;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string& code = lines[i].code;
      const char* what = nullptr;
      if (has_call(code, "time") || has_call(code, "clock")) {
        what = "time()/clock()";
      } else if (has_call(code, "gettimeofday") ||
                 has_call(code, "clock_gettime")) {
        what = "gettimeofday()/clock_gettime()";
      } else if (code.find("system_clock") != std::string::npos) {
        what = "std::chrono::system_clock";
      }
      if (what != nullptr) {
        report("wall-clock", path, i + 1, lines,
               std::string(what) + " in a result-affecting path");
      }
    }
  }

  // --- unordered-iter ------------------------------------------------------

  /// Collect identifiers declared (anywhere in the file) with an unordered
  /// container type, by scanning past the balanced template argument list.
  static std::vector<std::string> unordered_idents(
      const std::vector<SourceLine>& lines) {
    std::string joined;
    for (const SourceLine& l : lines) {
      joined += l.code;
      joined += '\n';
    }
    std::vector<std::string> idents;
    for (const std::string_view needle :
         {std::string_view("unordered_map"), std::string_view("unordered_set"),
          std::string_view("unordered_multimap"),
          std::string_view("unordered_multiset")}) {
      for (std::size_t pos = find_token(joined, needle);
           pos != std::string::npos;
           pos = find_token(joined, needle, pos + 1)) {
        std::size_t j = pos + needle.size();
        while (j < joined.size() &&
               std::isspace(static_cast<unsigned char>(joined[j])) != 0)
          ++j;
        if (j >= joined.size() || joined[j] != '<') continue;
        int depth = 0;
        while (j < joined.size()) {
          if (joined[j] == '<') ++depth;
          if (joined[j] == '>') {
            --depth;
            if (depth == 0) {
              ++j;
              break;
            }
          }
          ++j;
        }
        // Skip trailing '>' of enclosing templates, refs, pointers, spaces.
        while (j < joined.size() &&
               (joined[j] == '>' || joined[j] == '&' || joined[j] == '*' ||
                std::isspace(static_cast<unsigned char>(joined[j])) != 0))
          ++j;
        const std::size_t start = j;
        while (j < joined.size() && ident_char(joined[j])) ++j;
        if (j > start) {
          std::string name = joined.substr(start, j - start);
          if (name != "const" && name != "static" && name != "constexpr" &&
              std::find(idents.begin(), idents.end(), name) == idents.end()) {
            idents.push_back(std::move(name));
          }
        }
      }
    }
    return idents;
  }

  void check_unordered_iter(std::string_view path,
                            const std::vector<SourceLine>& lines) {
    if (!is_result_path(path)) return;
    const std::vector<std::string> idents = unordered_idents(lines);
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string& code = lines[i].code;
      const bool is_for = find_token(code, "for") != std::string::npos &&
                          code.find(':') != std::string::npos;
      // Direct iteration over an unordered temporary / member in a range-for.
      if (is_for && code.find("unordered_") != std::string::npos) {
        report("unordered-iter", path, i + 1, lines,
               "range-for over an unordered container");
        continue;
      }
      for (const std::string& id : idents) {
        const std::size_t pos = find_token(code, id);
        if (pos == std::string::npos) continue;
        // `for (... : ident)` — the identifier appears after the colon.
        if (is_for) {
          const std::size_t colon = code.rfind(':', pos);
          if (colon != std::string::npos && colon < pos) {
            report("unordered-iter", path, i + 1, lines,
                   "range-for over unordered container '" + id + "'");
            break;
          }
        }
        // `ident.begin()` / `ident[k].begin()` / cbegin/rbegin — explicit
        // iteration. Lookup idioms compare against .end() only, so .end()
        // alone is not flagged.
        std::size_t j = pos + id.size();
        if (j < code.size() && code[j] == '[') {
          int depth = 0;
          while (j < code.size()) {
            if (code[j] == '[') ++depth;
            if (code[j] == ']') {
              --depth;
              if (depth == 0) {
                ++j;
                break;
              }
            }
            ++j;
          }
        }
        const std::string_view rest = std::string_view(code).substr(j);
        if (rest.rfind(".begin(", 0) == 0 || rest.rfind(".cbegin(", 0) == 0 ||
            rest.rfind(".rbegin(", 0) == 0) {
          report("unordered-iter", path, i + 1, lines,
                 "iterator over unordered container '" + id + "'");
          break;
        }
      }
    }
  }

  // --- ptr-key-order -------------------------------------------------------

  void check_ptr_key_order(std::string_view path,
                           const std::vector<SourceLine>& lines) {
    if (path.rfind("src/", 0) != 0) return;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string& code = lines[i].code;
      bool hit = false;
      for (const std::string_view opener :
           {std::string_view("std::map<"), std::string_view("std::set<"),
            std::string_view("std::multimap<"),
            std::string_view("std::multiset<")}) {
        for (std::size_t pos = code.find(opener); pos != std::string::npos;
             pos = code.find(opener, pos + 1)) {
          // Scan the first template argument (up to a top-level ',' or '>').
          std::size_t j = pos + opener.size();
          int depth = 0;
          while (j < code.size()) {
            const char c = code[j];
            if (c == '<' || c == '(') ++depth;
            if (c == '>' || c == ')') {
              if (depth == 0) break;
              --depth;
            }
            if (c == ',' && depth == 0) break;
            if (c == '*') {
              hit = true;
              break;
            }
            ++j;
          }
          if (hit) break;
        }
        if (hit) break;
      }
      if (!hit) {
        // std::less<T*> comparators order by address wherever they appear.
        for (std::size_t pos = code.find("std::less<");
             pos != std::string::npos; pos = code.find("std::less<", pos + 1)) {
          std::size_t j = pos + 10;
          int depth = 1;
          while (j < code.size() && depth > 0) {
            if (code[j] == '<') ++depth;
            if (code[j] == '>') --depth;
            if (depth == 1 && code[j] == '*') {
              hit = true;
              break;
            }
            ++j;
          }
          if (hit) break;
        }
      }
      if (hit) {
        report("ptr-key-order", path, i + 1, lines,
               "ordered container keyed by pointer value");
      }
    }
  }

  // --- fp-accumulate -------------------------------------------------------

  /// Identifiers declared `double x` / `float x` (simple declarators and
  /// `double a = 0, b = 0;` chains with literal initializers).
  static std::vector<std::string> fp_idents(
      const std::vector<SourceLine>& lines) {
    std::vector<std::string> idents;
    for (const SourceLine& l : lines) {
      const std::string& code = l.code;
      for (const std::string_view type :
           {std::string_view("double"), std::string_view("float")}) {
        for (std::size_t pos = find_token(code, type);
             pos != std::string::npos;
             pos = find_token(code, type, pos + 1)) {
          std::size_t j = pos + type.size();
          while (j < code.size() &&
                 (code[j] == ' ' || code[j] == '&' || code[j] == '*'))
            ++j;
          bool more = true;
          while (more && j < code.size()) {
            const std::size_t start = j;
            while (j < code.size() && ident_char(code[j])) ++j;
            if (j == start) break;
            std::string name = code.substr(start, j - start);
            if (name == "const") {
              while (j < code.size() && code[j] == ' ') ++j;
              continue;
            }
            if (std::find(idents.begin(), idents.end(), name) ==
                idents.end()) {
              idents.push_back(std::move(name));
            }
            // Continue through `= <literal>, next` chains; stop at anything
            // structurally complex (calls, parens) to stay conservative.
            more = false;
            int depth = 0;
            while (j < code.size()) {
              const char c = code[j];
              if (c == '(' || c == '<' || c == '[' || c == '{') ++depth;
              if (c == ')' || c == '>' || c == ']' || c == '}') --depth;
              if (c == ';' && depth == 0) break;
              if (c == ',' && depth == 0) {
                ++j;
                while (j < code.size() && code[j] == ' ') ++j;
                more = true;
                break;
              }
              ++j;
            }
          }
        }
      }
    }
    return idents;
  }

  void check_fp_accumulate(std::string_view path,
                           const std::vector<SourceLine>& lines) {
    if (!is_hot_path(path)) return;
    const std::vector<std::string> idents = fp_idents(lines);
    if (idents.empty()) return;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string& code = lines[i].code;
      for (const std::string& id : idents) {
        for (std::size_t pos = find_token(code, id);
             pos != std::string::npos; pos = find_token(code, id, pos + 1)) {
          std::size_t j = pos + id.size();
          while (j < code.size() && code[j] == ' ') ++j;
          if (j + 1 < code.size() && code[j + 1] == '=' &&
              (code[j] == '+' || code[j] == '-' || code[j] == '*')) {
            report("fp-accumulate", path, i + 1, lines,
                   "compound assignment on floating-point '" + id + "'");
            pos = std::string::npos;
            break;
          }
        }
        if (pos_reported_last(i)) break;
      }
    }
  }

  [[nodiscard]] bool pos_reported_last(std::size_t line_index) const {
    return !findings_.empty() && findings_.back().line == line_index + 1 &&
           findings_.back().rule == "fp-accumulate";
  }

  // --- thread-detach -------------------------------------------------------

  void check_thread_detach(std::string_view path,
                           const std::vector<SourceLine>& lines) {
    if (path.rfind("src/", 0) != 0 && path.rfind("tools/", 0) != 0) return;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].code.find(".detach(") != std::string::npos ||
          lines[i].code.find("->detach(") != std::string::npos) {
        report("thread-detach", path, i + 1, lines,
               "std::thread::detach()");
      }
    }
  }

  // --- checkpoint-durability ----------------------------------------------

  void check_checkpoint_durability(std::string_view path,
                                   const std::vector<SourceLine>& lines) {
    if (!is_checkpoint_path(path)) return;
    bool has_write = false;
    std::size_t first_write_line = 0;
    bool has_append = false;
    bool has_fsync = false;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string& code = lines[i].code;
      if (has_call(code, "write")) {
        if (!has_write) first_write_line = i + 1;
        has_write = true;
      }
      if (find_token(code, "O_APPEND") != std::string::npos) has_append = true;
      if (has_call(code, "fsync") || has_call(code, "fdatasync")) {
        has_fsync = true;
      }
      const char* buffered = nullptr;
      if (code.find("std::ofstream") != std::string::npos ||
          find_token(code, "ofstream") != std::string::npos) {
        buffered = "std::ofstream";
      } else if (has_call(code, "fopen") || has_call(code, "fprintf") ||
                 has_call(code, "fwrite")) {
        buffered = "stdio buffered write";
      }
      if (buffered != nullptr) {
        report("checkpoint-durability", path, i + 1, lines,
               std::string(buffered) +
                   " in the checkpoint path (torn lines on crash)");
      }
    }
    if (has_write && (!has_append || !has_fsync)) {
      report("checkpoint-durability", path, first_write_line, lines,
             std::string("::write() without ") +
                 (!has_append ? "O_APPEND" : "fsync") +
                 " discipline in this file");
    }
  }

  // --- unbounded-retry -----------------------------------------------------

  void check_unbounded_retry(std::string_view path,
                             const std::vector<SourceLine>& lines) {
    if (path.rfind("src/serve/", 0) != 0) return;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const std::string& code = lines[i].code;
      const char* what = nullptr;
      if (find_token(code, "sleep_for") != std::string::npos ||
          find_token(code, "sleep_until") != std::string::npos) {
        what = "std::this_thread::sleep_for/sleep_until";
      } else if (has_call(code, "usleep") || has_call(code, "nanosleep") ||
                 has_call(code, "sleep")) {
        what = "C library sleep()";
      }
      if (what != nullptr) {
        report("unbounded-retry", path, i + 1, lines,
               std::string(what) + " without bounded backoff");
      }
    }
  }

  // --- lenient-parse -------------------------------------------------------

  void check_lenient_parse(std::string_view path,
                           const std::vector<SourceLine>& lines) {
    if (path.rfind("src/", 0) != 0 && path.rfind("tools/", 0) != 0 &&
        path.rfind("bench/", 0) != 0) {
      return;
    }
    static constexpr std::string_view kLenient[] = {
        "stoi",    "stol",    "stoll",   "stoul",    "stoull",    "stof",
        "stod",    "stold",   "atoi",    "atol",     "atoll",     "atof",
        "strtol",  "strtoll", "strtoul", "strtoull", "strtof",    "strtod",
        "strtold", "strtoq",  "strtouq", "strtoimax", "strtoumax"};
    for (std::size_t i = 0; i < lines.size(); ++i) {
      for (const std::string_view name : kLenient) {
        if (has_call(lines[i].code, name)) {
          report("lenient-parse", path, i + 1, lines,
                 std::string(name) + "() accepts signs, whitespace and junk");
          break;
        }
      }
    }
  }

  std::vector<AllowEntry> allow_;
  std::vector<Finding> findings_;
};

}  // namespace dualrad::lint
