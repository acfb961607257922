#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint_core.hpp"

/// \file dualrad_lint.cpp
/// CLI for the dualrad determinism linter (tools/lint_core.hpp).
///
/// Deliberately self-contained (no dualrad library, no third-party deps):
/// `g++ -std=c++20 -O2 tools/dualrad_lint.cpp -o dualrad_lint` builds it in
/// a couple of seconds, so CI runs it as a first-stage gate before the main
/// build ever configures.
///
///   dualrad_lint [--root=DIR] [paths...]   lint src/, tools/ and bench/
///                                          (or the given paths)
///   dualrad_lint --list-rules              print the ruleset with rationale
///   dualrad_lint --fix-hints               append a fix hint per finding
///   dualrad_lint --allowlist=FILE          override tools/lint_allow.txt
///
/// Exit status: 0 clean (allowed findings are reported but do not fail),
/// 1 unallowed findings, 2 usage or I/O error.

namespace fs = std::filesystem;
namespace lint = dualrad::lint;

namespace {

struct Options {
  std::string root = ".";
  std::string allowlist;  // empty: <root>/tools/lint_allow.txt if present
  std::vector<std::string> paths;
  bool fix_hints = false;
  bool list_rules = false;
  bool quiet = false;
};

void usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: dualrad_lint [--root=DIR] [--allowlist=FILE] [--fix-hints]\n"
      "                    [--list-rules] [--quiet] [paths...]\n"
      "\n"
      "Static determinism checker for the dualrad tree. Lints .cpp/.hpp\n"
      "files under the given paths (default: whichever of src/, tools/ and\n"
      "bench/ exist) relative to --root and exits non-zero on any finding\n"
      "not covered by an allowlist entry or an inline '// lint: <token>'\n"
      "justification.\n");
}

[[nodiscard]] std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + p.string());
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Repo-relative path with forward slashes, for rule scoping and output.
[[nodiscard]] std::string rel_path(const fs::path& root, const fs::path& p) {
  std::string s = fs::relative(p, root).generic_string();
  return s;
}

void collect_files(const fs::path& root, const std::string& arg,
                   std::vector<fs::path>& files) {
  const fs::path p = root / arg;
  if (fs::is_regular_file(p)) {
    files.push_back(p);
    return;
  }
  if (!fs::is_directory(p)) {
    throw std::runtime_error("no such file or directory: " + p.string());
  }
  for (const auto& entry : fs::recursive_directory_iterator(p)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h") {
      files.push_back(entry.path());
    }
  }
}

void print_rules() {
  std::printf("dualrad_lint ruleset:\n\n");
  for (const lint::Rule& r : lint::rules()) {
    std::printf("%-22s %.*s\n", std::string(r.id).c_str(),
                static_cast<int>(r.summary.size()), r.summary.data());
    std::printf("%-22s why: %.*s\n", "",
                static_cast<int>(r.rationale.size()), r.rationale.data());
    std::printf("%-22s fix: %.*s\n", "",
                static_cast<int>(r.hint.size()), r.hint.data());
    if (!r.annotation.empty()) {
      std::printf("%-22s escape: '// %.*s (<justification>)'\n", "",
                  static_cast<int>(r.annotation.size()), r.annotation.data());
    } else {
      std::printf("%-22s escape: tools/lint_allow.txt only\n", "");
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::string(prefix).size();
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + n : nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else if (arg == "--list-rules") {
      opt.list_rules = true;
    } else if (arg == "--fix-hints") {
      opt.fix_hints = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (const char* v = value("--root=")) {
      opt.root = v;
    } else if (const char* v = value("--allowlist=")) {
      opt.allowlist = v;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "dualrad_lint: unknown option %s\n", arg.c_str());
      usage(stderr);
      return 2;
    } else {
      opt.paths.push_back(arg);
    }
  }

  if (opt.list_rules) {
    print_rules();
    return 0;
  }
  try {
    const fs::path root = fs::canonical(opt.root);
    if (opt.paths.empty()) {
      for (const char* dir : {"src", "tools", "bench"}) {
        if (fs::is_directory(root / dir)) opt.paths.emplace_back(dir);
      }
    }

    lint::Linter linter;
    fs::path allow_path;
    if (!opt.allowlist.empty()) {
      allow_path = opt.allowlist;
    } else if (fs::exists(root / "tools" / "lint_allow.txt")) {
      allow_path = root / "tools" / "lint_allow.txt";
    }
    if (!allow_path.empty()) {
      const std::vector<lint::AllowEntry> entries =
          lint::parse_allowlist(read_file(allow_path));
      for (const lint::AllowEntry& e : entries) {
        if (e.rule != "*" && lint::find_rule(e.rule) == nullptr) {
          std::fprintf(stderr,
                       "dualrad_lint: warning: allowlist names unknown rule "
                       "'%s'\n",
                       e.rule.c_str());
        }
      }
      linter.set_allowlist(entries);
    }

    std::vector<fs::path> files;
    for (const std::string& p : opt.paths) collect_files(root, p, files);
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    for (const fs::path& f : files) {
      linter.lint_file(rel_path(root, f), read_file(f));
    }

    std::size_t allowed = 0;
    for (const lint::Finding& f : linter.findings()) {
      if (f.allowed) {
        ++allowed;
        if (!opt.quiet) {
          std::printf("%s:%zu: [%s] %s (allowlisted)\n", f.path.c_str(),
                      f.line, f.rule.c_str(), f.message.c_str());
        }
        continue;
      }
      std::printf("%s:%zu: [%s] %s\n", f.path.c_str(), f.line, f.rule.c_str(),
                  f.message.c_str());
      const lint::Rule* r = lint::find_rule(f.rule);
      if (opt.fix_hints && r != nullptr) {
        std::printf("    hint: %.*s\n", static_cast<int>(r->hint.size()),
                    r->hint.data());
      }
    }

    const std::size_t bad = linter.unallowed_count();
    if (!opt.quiet || bad != 0) {
      std::printf("dualrad_lint: %zu file(s), %zu finding(s), %zu allowed\n",
                  files.size(), linter.findings().size(), allowed);
    }
    return bad == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dualrad_lint: %s\n", e.what());
    return 2;
  }
}
