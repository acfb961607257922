#include "lint_core.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

/// \file test_lint.cpp
/// The determinism linter's own test coverage: positive and negative cases
/// for every rule, the `// lint: <token>-ok` escape hatch, allowlist
/// handling, the comment/string stripper, and the on-disk fixture corpus
/// under tests/lint_fixtures/. The real src/ tree is linted by the
/// `lint_tree` ctest entry (the dualrad_lint binary itself), so a rule
/// regression fails CI twice: here on semantics, there on the tree.

namespace lint = dualrad::lint;

namespace {

std::vector<lint::Finding> run_lint(std::string_view path,
                                    std::string_view text) {
  lint::Linter linter;
  linter.lint_file(path, text);
  return linter.findings();
}

std::vector<std::string> rules_hit(const std::vector<lint::Finding>& fs) {
  std::vector<std::string> ids;
  ids.reserve(fs.size());
  for (const lint::Finding& f : fs) ids.push_back(f.rule);
  return ids;
}

}  // namespace

// --- stripping -------------------------------------------------------------

TEST(LintStrip, LineCommentsAreBlanked) {
  const auto lines = lint::split_source("int x = 1;  // rand() here\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].code.find("rand"), std::string::npos);
  EXPECT_NE(lines[0].raw.find("rand"), std::string::npos);
}

TEST(LintStrip, BlockCommentsSpanLines) {
  const auto lines =
      lint::split_source("int a;\n/* rand()\n   clock() */ int b;\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1].code.find("rand"), std::string::npos);
  EXPECT_EQ(lines[2].code.find("clock"), std::string::npos);
  EXPECT_NE(lines[2].code.find("int b"), std::string::npos);
}

TEST(LintStrip, StringAndCharBodiesAreBlanked) {
  const auto lines = lint::split_source(
      "const char* s = \"rand()\"; char c = 'r'; int rend = 0;\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].code.find("rand"), std::string::npos);
  // Quotes survive so tokens cannot merge across a literal.
  EXPECT_NE(lines[0].code.find('"'), std::string::npos);
  EXPECT_NE(lines[0].code.find("rend"), std::string::npos);
}

TEST(LintStrip, EscapedQuoteDoesNotEndString) {
  const auto lines =
      lint::split_source("const char* s = \"a\\\"rand()\"; int y;\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].code.find("rand"), std::string::npos);
  EXPECT_NE(lines[0].code.find("int y"), std::string::npos);
}

TEST(LintStrip, RawStringsAreBlanked) {
  const auto lines = lint::split_source(
      "const char* s = R\"(rand() and .detach())\"; int z;\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].code.find("rand"), std::string::npos);
  EXPECT_EQ(lines[0].code.find("detach"), std::string::npos);
  EXPECT_NE(lines[0].code.find("int z"), std::string::npos);
}

TEST(LintStrip, TokenBoundaries) {
  EXPECT_TRUE(lint::has_call("return rand();", "rand"));
  EXPECT_FALSE(lint::has_call("return operand(x);", "rand"));
  EXPECT_FALSE(lint::has_call("return dualrad_rand;", "rand"));
  EXPECT_FALSE(lint::has_call("start_time(x);", "time"));
  EXPECT_TRUE(lint::has_call("t = time (nullptr);", "time"));
}

// --- raw-random ------------------------------------------------------------

TEST(LintRawRandom, FlagsEverySource) {
  const std::string bad =
      "#include <random>\n"
      "int a() { return rand(); }\n"
      "void b() { srand(7); }\n"
      "std::random_device rd;\n"
      "std::mt19937 gen;\n";
  const auto fs = run_lint("src/core/simulator.cpp", bad);
  ASSERT_EQ(fs.size(), 5u);
  for (const lint::Finding& f : fs) EXPECT_EQ(f.rule, "raw-random");
  EXPECT_EQ(fs[0].line, 1u);
  EXPECT_EQ(fs[1].line, 2u);
}

TEST(LintRawRandom, RngHeaderAndObsAreExempt) {
  const std::string text = "int a() { return rand(); }\n";
  EXPECT_TRUE(run_lint("src/core/rng.hpp", text).empty());
  EXPECT_TRUE(run_lint("src/obs/rss.cpp", text).empty());
  EXPECT_FALSE(run_lint("src/core/rng_extras.hpp", text).empty());
}

TEST(LintRawRandom, NoEscapeAnnotation) {
  // raw-random accepts only the allowlist, never an inline annotation.
  const std::string text =
      "// lint: random-ok\n"
      "int a() { return rand(); }  // lint: random-ok\n";
  EXPECT_EQ(run_lint("src/core/x.cpp", text).size(), 1u);
}

// --- wall-clock ------------------------------------------------------------

TEST(LintWallClock, FlagsResultPathsOnly) {
  const std::string text = "long t = time(nullptr);\n";
  EXPECT_EQ(rules_hit(run_lint("src/core/x.cpp", text)),
            std::vector<std::string>{"wall-clock"});
  EXPECT_TRUE(run_lint("src/serve/worker.cpp", text).empty());
  EXPECT_TRUE(run_lint("src/obs/telemetry.cpp", text).empty());
  EXPECT_TRUE(run_lint("tools/dualrad_campaign.cpp", text).empty());
}

TEST(LintWallClock, SteadyClockIsFine) {
  const std::string text =
      "auto t = std::chrono::steady_clock::now();\n"
      "auto e = t.time_since_epoch();\n";
  EXPECT_TRUE(run_lint("src/campaign/engine.cpp", text).empty());
}

TEST(LintWallClock, AnnotationOnLineOrAbove) {
  const std::string same_line =
      "long t = time(nullptr);  // lint: wallclock-ok (log only)\n";
  EXPECT_TRUE(run_lint("src/core/x.cpp", same_line).empty());
  const std::string line_above =
      "// lint: wallclock-ok (log only)\n"
      "long t = time(nullptr);\n";
  EXPECT_TRUE(run_lint("src/core/x.cpp", line_above).empty());
  const std::string too_far =
      "// lint: wallclock-ok (log only)\n"
      "int pad;\n"
      "long t = time(nullptr);\n";
  EXPECT_EQ(run_lint("src/core/x.cpp", too_far).size(), 1u);
}

// --- unordered-iter --------------------------------------------------------

TEST(LintUnorderedIter, RangeForOverTrackedIdent) {
  const std::string text =
      "std::unordered_map<int, int> counts;\n"
      "int f() { int s = 0; for (auto& [k, v] : counts) s += v; return s; }\n";
  const auto fs = run_lint("src/graph/x.cpp", text);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "unordered-iter");
  EXPECT_EQ(fs[0].line, 2u);
}

TEST(LintUnorderedIter, BeginOnTrackedIdent) {
  const std::string text =
      "std::unordered_set<int> seen;\n"
      "int f() { return *seen.begin(); }\n";
  EXPECT_EQ(rules_hit(run_lint("src/core/x.cpp", text)),
            std::vector<std::string>{"unordered-iter"});
}

TEST(LintUnorderedIter, NestedTemplateDeclaration) {
  // The declarator after a nested template argument list is still found.
  const std::string text =
      "std::vector<std::unordered_map<int, std::vector<int>>> reach;\n"
      "int f() { int n = 0; for (auto& m : reach[0]) ++n; return n; }\n";
  const auto fs = run_lint("src/adversary/x.cpp", text);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 2u);
}

TEST(LintUnorderedIter, LookupIsNotIteration) {
  const std::string text =
      "std::unordered_map<int, int> index;\n"
      "bool f(int k) { return index.find(k) != index.end(); }\n"
      "bool g(int k) { return index.contains(k); }\n";
  EXPECT_TRUE(run_lint("src/core/x.cpp", text).empty());
}

TEST(LintUnorderedIter, OrderedOkEscape) {
  const std::string text =
      "std::unordered_set<int> pool;\n"
      "// lint: ordered-ok (xor fold is order-insensitive)\n"
      "int f() { int p = 0; for (int v : pool) p ^= v; return p; }\n";
  EXPECT_TRUE(run_lint("src/core/x.cpp", text).empty());
}

TEST(LintUnorderedIter, OutsideResultPathsIsFine) {
  const std::string text =
      "std::unordered_map<int, int> counts;\n"
      "int f() { int s = 0; for (auto& [k, v] : counts) s += v; return s; }\n";
  EXPECT_TRUE(run_lint("src/serve/coordinator.cpp", text).empty());
}

// --- ptr-key-order ---------------------------------------------------------

TEST(LintPtrKeyOrder, FlagsPointerKeys) {
  EXPECT_EQ(rules_hit(run_lint("src/core/x.cpp",
                               "std::map<Node*, int> rank;\n")),
            std::vector<std::string>{"ptr-key-order"});
  EXPECT_EQ(rules_hit(run_lint("src/core/x.cpp",
                               "std::set<const Node*> visited;\n")),
            std::vector<std::string>{"ptr-key-order"});
  EXPECT_EQ(rules_hit(run_lint("src/serve/x.cpp",
                               "std::set<int, std::less<Node*>> s;\n")),
            std::vector<std::string>{"ptr-key-order"});
}

TEST(LintPtrKeyOrder, PointerValuesAreFine) {
  const std::string text =
      "std::map<std::string, const Scenario*, std::less<>> by_name;\n"
      "std::map<int, Node*> node_by_id;\n";
  EXPECT_TRUE(run_lint("src/serve/worker.cpp", text).empty());
}

// --- fp-accumulate ---------------------------------------------------------

TEST(LintFpAccumulate, FlagsCompoundAssignInHotPaths) {
  const std::string text =
      "double sum = 0.0;\n"
      "void f(double x) { sum += x; }\n";
  const auto fs = run_lint("src/core/x.cpp", text);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "fp-accumulate");
  EXPECT_EQ(fs[0].line, 2u);
}

TEST(LintFpAccumulate, DeclarationChains) {
  // Both names in a `double a = 0, b = 0;` chain are tracked. (The linter
  // reports at most one fp finding per line, so accumulate on two lines.)
  const std::string text =
      "void f() {\n"
      "  double a = 0.0, b = 0.0;\n"
      "  a += 1.0;\n"
      "  b -= 2.0;\n"
      "}\n";
  const auto fs = run_lint("src/mac/x.cpp", text);
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0].line, 3u);
  EXPECT_EQ(fs[1].line, 4u);
}

TEST(LintFpAccumulate, IntegersAndColdPathsAreFine) {
  const std::string ints =
      "std::uint64_t n = 0;\n"
      "void f() { n += 3; }\n";
  EXPECT_TRUE(run_lint("src/core/x.cpp", ints).empty());
  const std::string fp =
      "double sum = 0.0;\n"
      "void f(double x) { sum += x; }\n";
  // stats/ and campaign/ aggregate after the engine has produced results.
  EXPECT_TRUE(run_lint("src/stats/stats.cpp", fp).empty());
  EXPECT_TRUE(run_lint("src/campaign/engine.cpp", fp).empty());
}

TEST(LintFpAccumulate, FpOkEscape) {
  const std::string text =
      "double sum = 0.0;\n"
      "// lint: fp-ok (serial order)\n"
      "void f(double x) { sum += x; }\n";
  EXPECT_TRUE(run_lint("src/core/x.cpp", text).empty());
}

// --- thread-detach ---------------------------------------------------------

TEST(LintThreadDetach, FlagsDetachEverywhere) {
  const std::string text = "void f(std::thread& t) { t.detach(); }\n";
  EXPECT_EQ(rules_hit(run_lint("src/serve/server.cpp", text)),
            std::vector<std::string>{"thread-detach"});
  EXPECT_EQ(rules_hit(run_lint("tools/dualrad_serve.cpp", text)),
            std::vector<std::string>{"thread-detach"});
  EXPECT_TRUE(run_lint("src/core/x.cpp",
                       "void f(std::thread& t) { t.join(); }\n")
                  .empty());
}

// --- checkpoint-durability -------------------------------------------------

TEST(LintCheckpointDurability, BufferedWritesFlagged) {
  const std::string text = "std::ofstream out(path);\n";
  EXPECT_EQ(rules_hit(run_lint("src/serve/checkpoint.cpp", text)),
            std::vector<std::string>{"checkpoint-durability"});
  // Outside the checkpoint files the rule does not apply.
  EXPECT_TRUE(run_lint("src/serve/wire.cpp", text).empty());
}

TEST(LintCheckpointDurability, WriteNeedsAppendAndFsync) {
  const std::string bare =
      "void append(int fd, const char* p, long n) { ::write(fd, p, n); }\n";
  const auto fs = run_lint("src/serve/checkpoint.cpp", bare);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "checkpoint-durability");

  const std::string disciplined =
      "int open_journal(const char* p) {\n"
      "  return ::open(p, O_WRONLY | O_CREAT | O_APPEND, 0644);\n"
      "}\n"
      "void append(int fd, const char* p, long n) {\n"
      "  ::write(fd, p, n);\n"
      "  ::fsync(fd);\n"
      "}\n";
  EXPECT_TRUE(run_lint("src/serve/checkpoint.cpp", disciplined).empty());
}

// --- unbounded-retry -------------------------------------------------------

TEST(LintUnboundedRetry, FlagsRawSleepsInServe) {
  const std::string text =
      "void f() { std::this_thread::sleep_for(std::chrono::seconds(1)); }\n"
      "void g() { ::usleep(1000); }\n"
      "void h() { sleep(1); }\n";
  const auto fs = run_lint("src/serve/worker.cpp", text);
  ASSERT_EQ(fs.size(), 3u);
  for (const lint::Finding& f : fs) EXPECT_EQ(f.rule, "unbounded-retry");
}

TEST(LintUnboundedRetry, OnlyAppliesToServe) {
  const std::string text =
      "void f() { std::this_thread::sleep_for(std::chrono::seconds(1)); }\n";
  EXPECT_TRUE(run_lint("src/obs/heartbeat.cpp", text).empty());
  EXPECT_TRUE(run_lint("tools/dualrad_serve.cpp", text).empty());
  EXPECT_FALSE(run_lint("src/serve/wire.cpp", text).empty());
}

TEST(LintUnboundedRetry, AnnotationAndWrappersEscape) {
  // The annotation on the line (or the line above) silences the rule, and
  // identifiers merely containing "sleep" are not sleep calls.
  const std::string ok =
      "// bounded, jittered delay from the caller. lint: backoff-ok\n"
      "void f() { std::this_thread::sleep_for(chunk); }\n"
      "void g() { sleep_checking_stop(delay, stop); }\n";
  EXPECT_TRUE(run_lint("src/serve/worker.cpp", ok).empty());
}

// --- lenient-parse ---------------------------------------------------------

TEST(LintLenientParse, FlagsStoAtoAndStrtoUnderSrc) {
  const std::string text =
      "auto a = std::stoull(s);\n"
      "auto b = std::stod(s, &pos);\n"
      "int c = atoi(p);\n"
      "long d = ::strtol(p, nullptr, 10);\n"
      "auto e = std::strtoull(p, &end, 10);\n";
  const auto fs = run_lint("src/serve/faultline.cpp", text);
  ASSERT_EQ(fs.size(), 5u);
  for (const lint::Finding& f : fs) EXPECT_EQ(f.rule, "lenient-parse");
}

TEST(LintLenientParse, AppliesToSrcToolsAndBench) {
  // Command-line flags are outside input too: `--trials=-1` wrapped to
  // 2^64-1 through std::stoul.
  const std::string text = "auto seed = std::stoull(*v);\n";
  EXPECT_FALSE(run_lint("src/campaign/export.cpp", text).empty());
  EXPECT_FALSE(run_lint("tools/dualrad_campaign.cpp", text).empty());
  EXPECT_FALSE(run_lint("bench/bench_engine_scaling.cpp", text).empty());
  EXPECT_TRUE(run_lint("tests/test_campaign.cpp", text).empty());
  EXPECT_TRUE(run_lint("examples/quickstart.cpp", text).empty());
}

TEST(LintLenientParse, AnnotationFromCharsAndLookalikesEscape) {
  const std::string ok =
      "// a flag, not a file field. lint: parse-ok\n"
      "long a = std::stol(flag);\n"
      "std::from_chars(s.data(), s.data() + s.size(), v);\n"
      "int stoi_calls = restore(stold_value);\n"
      "const char* h = \"atoi(s)\";\n";
  EXPECT_TRUE(run_lint("src/campaign/jsonl.hpp", ok).empty());
}

// --- allowlist -------------------------------------------------------------

TEST(LintAllowlist, ParseSkipsCommentsAndBlanks) {
  const auto entries = lint::parse_allowlist(
      "# header comment\n"
      "\n"
      "raw-random src/legacy/old.cpp  # grandfathered\n"
      "* src/generated/\n");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].rule, "raw-random");
  EXPECT_EQ(entries[0].path_suffix, "src/legacy/old.cpp");
  EXPECT_EQ(entries[1].rule, "*");
}

TEST(LintAllowlist, SuffixAndWildcardMatching) {
  lint::AllowEntry exact{"raw-random", "src/legacy/old.cpp"};
  EXPECT_TRUE(lint::allow_matches(exact, "raw-random", "src/legacy/old.cpp"));
  EXPECT_FALSE(lint::allow_matches(exact, "wall-clock", "src/legacy/old.cpp"));
  EXPECT_FALSE(lint::allow_matches(exact, "raw-random", "src/core/old.cpp"));
  lint::AllowEntry any_rule{"*", "old.cpp"};
  EXPECT_TRUE(lint::allow_matches(any_rule, "thread-detach",
                                  "src/legacy/old.cpp"));
}

TEST(LintAllowlist, AllowedFindingsDoNotFail) {
  lint::Linter linter;
  linter.set_allowlist(
      lint::parse_allowlist("raw-random src/core/legacy.cpp\n"));
  linter.lint_file("src/core/legacy.cpp", "int a() { return rand(); }\n");
  linter.lint_file("src/core/fresh.cpp", "int b() { return rand(); }\n");
  ASSERT_EQ(linter.findings().size(), 2u);
  EXPECT_TRUE(linter.findings()[0].allowed);
  EXPECT_FALSE(linter.findings()[1].allowed);
  EXPECT_EQ(linter.unallowed_count(), 1u);
}

// --- rule table ------------------------------------------------------------

TEST(LintRules, TableIsComplete) {
  ASSERT_EQ(lint::rules().size(), 9u);
  for (const lint::Rule& r : lint::rules()) {
    EXPECT_FALSE(r.id.empty());
    EXPECT_FALSE(r.summary.empty());
    EXPECT_FALSE(r.rationale.empty());
    EXPECT_FALSE(r.hint.empty());
    EXPECT_NE(lint::find_rule(r.id), nullptr);
  }
  EXPECT_EQ(lint::find_rule("no-such-rule"), nullptr);
}

// --- fixture corpus --------------------------------------------------------

#ifdef DUALRAD_LINT_FIXTURES

namespace {

/// Expected unallowed finding count per fixture file (repo-relative path as
/// the linter sees it). Every rule has at least one positive fixture; the
/// negatives inside each file are covered by the exact counts.
const std::map<std::string, std::size_t> kFixtureExpectations = {
    {"src/core/raw_random.cpp", 5},
    {"src/core/wall_clock.cpp", 3},
    {"src/core/unordered_iter.cpp", 2},
    {"src/adversary/ptr_key.cpp", 3},
    {"src/mac/fp_accum.cpp", 2},
    {"src/campaign/thread_detach.cpp", 1},
    {"src/serve/checkpoint_buffered.cpp", 2},
    {"src/serve/retry_sleep.cpp", 2},
    {"src/campaign/lenient_parse.cpp", 3},
    {"tools/lenient_flags.cpp", 2},
    {"src/obs/sampling_ok.cpp", 0},
    {"src/core/clean.cpp", 0},
};

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << p;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

TEST(LintFixtures, CorpusMatchesExpectations) {
  const std::filesystem::path root = DUALRAD_LINT_FIXTURES;
  ASSERT_TRUE(std::filesystem::is_directory(root)) << root;
  std::size_t seen = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".cpp") continue;
    const std::string rel =
        std::filesystem::relative(entry.path(), root).generic_string();
    const auto it = kFixtureExpectations.find(rel);
    ASSERT_NE(it, kFixtureExpectations.end())
        << "fixture file without an expectation: " << rel;
    lint::Linter linter;
    linter.lint_file(rel, read_file(entry.path()));
    EXPECT_EQ(linter.unallowed_count(), it->second) << rel;
    ++seen;
  }
  EXPECT_EQ(seen, kFixtureExpectations.size())
      << "expectation without a fixture file";
}

#endif  // DUALRAD_LINT_FIXTURES
