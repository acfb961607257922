// Engine-scaling bench: the sparse CSR round engine vs the dense reference
// engine on the scale/* workloads (Decay broadcast, sparse layered and
// gray-zone families, n in {1k, 10k, 100k, 1m}, benign / bernoulli /
// greedy-blocker channels — the greedy points exercise the sparse batch
// adversary API at scale).
//
// For every scale scenario this runs one campaign-seeded trial (master seed
// 1, trial 0 — the exact execution dualrad_campaign would run):
//   * under the production engine ("csr");
//   * under the reference engine where n makes that tolerable (n <= 10^4;
//     the reference's O(n)-per-round scans are the point of the comparison).
// Every run is untraced; --telemetry gives the O(window) per-round view.
// Emits BENCH_engine.json: the machine (nproc, CPU model, compiler, build
// flags) and repeat count, then per (scenario, engine) the completion round,
// the median and min-max wall time over --repeat runs, rounds/sec at the
// median, and the *per-measurement* peak RSS (the kernel high-water mark is
// reset before each measurement via obs::reset_peak, so a row's peak is its
// own, not inherited from earlier rows; where /proc/self/clear_refs is
// unavailable the column degrades to the monotone process-wide peak and the
// JSON flags it with "rss_per_scenario": false), plus the engine-vs-reference
// speedup map.
//
// Usage: bench_engine_scaling [--quick] [--repeat=N] [--filter=SUBSTR]
//                             [--max-rss-mb=N] [--telemetry] [--out=PATH]
//   --quick       skip the "slow"-tagged points (n >= 10^5; CI-friendly)
//   --repeat=N    run each measurement N times; rows report the median and
//                 the min-max spread (simulation output is identical across
//                 repeats)
//   --filter=S    restrict to scenarios whose name contains S
//   --max-rss-mb=N  exit nonzero if peak RSS ever exceeds N MiB (the CI
//                 memory-regression gate for the 10^6 smoke)
//   --telemetry   attach the obs::RoundTelemetry layer to every timed run
//                 and print the per-phase wall-time breakdown per row.
//                 Off by default: committed baselines measure the
//                 telemetry-disabled (branch-on-null) hot path
//   --out         output path for the JSON report (default BENCH_engine.json)

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "campaign/builtin_scenarios.hpp"
#include "campaign/engine.hpp"
#include "campaign/jsonl.hpp"
#include "core/reference_engine.hpp"
#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "obs/rss.hpp"
#include "obs/telemetry.hpp"
#include "stats/table.hpp"

#ifndef DUALRAD_BUILD_FLAGS
#define DUALRAD_BUILD_FLAGS "unknown"
#endif

namespace dualrad {
namespace {

enum class EngineKind { Csr, Reference };

struct Measurement {
  std::string scenario;
  std::string engine;
  NodeId n = 0;
  bool completed = false;
  Round rounds = 0;
  std::uint64_t sends = 0;
  std::size_t repeat = 0;
  double wall_ms = 0.0;      // median over the repeats
  double wall_ms_min = 0.0;
  double wall_ms_max = 0.0;
  double rounds_per_sec = 0.0;  // at the median wall time
  double peak_rss_mb = 0.0;
  std::array<std::uint64_t, obs::kPhaseCount> phase_ns{};  // --telemetry only
};

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "g++ " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

// False once any obs::reset_peak() fails: the peak_rss_mb column is then the
// monotone process-wide high-water mark, and the JSON says so.
bool g_rss_per_scenario = true;

/// "model name" of the first CPU in /proc/cpuinfo ("unknown" elsewhere).
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model = line.substr(colon + 1);
    model.erase(0, model.find_first_not_of(' '));
    // The value is embedded in JSON unescaped.
    std::erase_if(model, [](char c) { return c == '"' || c == '\\'; });
    return model;
  }
  return "unknown";
}

Measurement run_one(const campaign::Scenario& spec, const DualGraph& net,
                    const ProcessFactory& factory, EngineKind kind,
                    std::size_t repeat, obs::RoundTelemetry* telemetry) {
  SimConfig config;
  config.rule = spec.rule;
  config.start = spec.start;
  config.max_rounds = spec.max_rounds;
  config.seed = campaign::trial_seed(1, spec.name, 0);
  config.token_sources = spec.token_sources;
  config.telemetry = telemetry;

  // Per-measurement RSS: reset the kernel high-water mark so this row's peak
  // covers exactly this measurement's allocations (plus whatever is already
  // resident — the true working set it runs against).
  g_rss_per_scenario = obs::reset_peak() && g_rss_per_scenario;

  std::vector<double> walls;
  SimResult result;
  for (std::size_t rep = 0; rep < std::max<std::size_t>(repeat, 1); ++rep) {
    // Fresh adversary per run: stateful adversaries replay the same stream.
    const auto adversary = spec.adversary(mix_seed(config.seed, 0xAD));
    const auto started = std::chrono::steady_clock::now();
    result = kind == EngineKind::Reference
                 ? run_broadcast_reference(net, factory, *adversary, config)
                 : run_broadcast(net, factory, *adversary, config);
    walls.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - started)
                        .count());
  }
  std::sort(walls.begin(), walls.end());
  const std::size_t mid = walls.size() / 2;
  const double median = walls.size() % 2 == 1
                            ? walls[mid]
                            : (walls[mid - 1] + walls[mid]) / 2;

  Measurement m;
  m.scenario = spec.name;
  m.engine = kind == EngineKind::Reference ? "reference" : "csr";
  m.n = net.node_count();
  m.completed = result.completed;
  m.rounds = result.rounds_executed;
  m.sends = result.total_sends;
  m.repeat = walls.size();
  m.wall_ms = median * 1e3;
  m.wall_ms_min = walls.front() * 1e3;
  m.wall_ms_max = walls.back() * 1e3;
  m.rounds_per_sec =
      median > 0 ? static_cast<double>(result.rounds_executed) / median : 0;
  m.peak_rss_mb = obs::peak_rss_mb();
  if (telemetry != nullptr) {
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
      m.phase_ns[p] = telemetry->total_phase_ns(static_cast<obs::Phase>(p));
    }
  }
  return m;
}

// Scenario names are [A-Za-z0-9._/+:=-], so they embed in JSON unescaped.
void write_json(const std::string& path, std::size_t repeat,
                const std::vector<Measurement>& measurements,
                const std::map<std::string, double>& speedups) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"engine_scaling\",\n  \"machine\": {\"nproc\": "
      << std::thread::hardware_concurrency() << ", \"cpu\": \"" << cpu_model()
      << "\", \"compiler\": \"" << kCompiler << "\", \"build_flags\": \""
      << DUALRAD_BUILD_FLAGS << "\"},\n  \"repeat\": " << repeat
      << ",\n  \"rss_per_scenario\": "
      << (g_rss_per_scenario ? "true" : "false")
      << ",\n  \"measurements\": [\n";
  for (std::size_t i = 0; i < measurements.size(); ++i) {
    const Measurement& m = measurements[i];
    char buf[768];
    std::snprintf(buf, sizeof buf,
                  "    {\"scenario\": \"%s\", \"engine\": \"%s\", "
                  "\"n\": %d, \"completed\": %s, "
                  "\"rounds\": %lld, \"sends\": %llu, \"repeat\": %zu, "
                  "\"wall_ms\": %.3f, \"wall_ms_min\": %.3f, "
                  "\"wall_ms_max\": %.3f, \"rounds_per_sec\": %.1f, "
                  "\"peak_rss_mb\": %.1f}%s\n",
                  m.scenario.c_str(), m.engine.c_str(), m.n,
                  m.completed ? "true" : "false",
                  static_cast<long long>(m.rounds),
                  static_cast<unsigned long long>(m.sends), m.repeat,
                  m.wall_ms, m.wall_ms_min, m.wall_ms_max, m.rounds_per_sec,
                  m.peak_rss_mb, i + 1 < measurements.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n  \"speedup_rounds_per_sec\": {\n";
  std::size_t i = 0;
  for (const auto& [name, speedup] : speedups) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "    \"%s\": %.2f%s\n", name.c_str(),
                  speedup, i + 1 < speedups.size() ? "," : "");
    out << buf;
    ++i;
  }
  out << "  }\n}\n";
}

}  // namespace
}  // namespace dualrad

int main(int argc, char** argv) {
  using namespace dualrad;

  bool quick = false;
  bool with_telemetry = false;
  std::size_t repeat = 1;
  double max_rss_mb = 0.0;  // 0 = no ceiling
  std::string filter;
  std::string out_path = "BENCH_engine.json";
  const auto usage = [] {
    std::cerr << "usage: bench_engine_scaling [--quick] [--repeat=N] "
                 "[--filter=SUBSTR] [--max-rss-mb=N] [--telemetry] "
                 "[--out=PATH]\n";
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--telemetry") {
      with_telemetry = true;
    } else if (arg.rfind("--repeat=", 0) == 0) {
      if (!campaign::jsonl::parse_into(arg.substr(9), repeat)) return usage();
      repeat = std::max<std::size_t>(repeat, 1);
    } else if (arg.rfind("--filter=", 0) == 0) {
      filter = arg.substr(9);
    } else if (arg.rfind("--max-rss-mb=", 0) == 0) {
      if (!campaign::jsonl::parse_into(arg.substr(13), max_rss_mb) ||
          !(max_rss_mb >= 0)) {
        return usage();
      }
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      return usage();
    }
  }

  std::cout << "\n=== ENGINE: sparse CSR engine vs dense reference ===\n"
               "expectation: rounds/sec gap grows with n; >= 5x on the 10k "
               "benign points\n\n";

  const campaign::ScenarioRegistry registry = campaign::builtin_registry();
  std::vector<campaign::Scenario> points = registry.match("scale");
  // Run the smallest n first: the peak-RSS reset keeps rows independent, but
  // ascending n still keeps already-resident footprint (the reset's floor)
  // minimal for the small points, and the output order stable.
  const auto size_rank = [](const campaign::Scenario& s) {
    if (s.name.find("-1m/") != std::string::npos) return 3;
    if (s.name.find("-100k/") != std::string::npos) return 2;
    if (s.name.find("-10k/") != std::string::npos) return 1;
    return 0;
  };
  std::stable_sort(points.begin(), points.end(),
                   [&](const auto& a, const auto& b) {
                     return size_rank(a) < size_rank(b);
                   });

  std::vector<Measurement> measurements;
  std::map<std::string, double> speedups;
  bool gates_ok = true;
  stats::Table table({"scenario", "n", "engine", "rounds", "wall ms (median)",
                      "min-max", "rounds/s", "peak RSS MB"});
  const auto record = [&](const Measurement& m) {
    measurements.push_back(m);
    table.add_row({m.scenario, std::to_string(m.n), m.engine,
                   std::to_string(m.rounds), stats::Table::num(m.wall_ms, 1),
                   stats::Table::num(m.wall_ms_min, 1) + "-" +
                       stats::Table::num(m.wall_ms_max, 1),
                   stats::Table::num(m.rounds_per_sec, 0),
                   stats::Table::num(m.peak_rss_mb, 1)});
    if (max_rss_mb > 0 && m.peak_rss_mb > max_rss_mb) {
      std::cerr << "error: " << m.scenario << "/" << m.engine
                << " peak RSS " << m.peak_rss_mb << " MB exceeds ceiling "
                << max_rss_mb << " MB\n";
      gates_ok = false;
    }
    if (!m.completed) {
      std::cerr << "warning: " << m.scenario << " hit the round cap under "
                << m.engine << "\n";
    }
  };

  // One registry reused across measurements (each run resets it); attached
  // only under --telemetry so default baselines measure the disabled path.
  obs::RoundTelemetry telemetry(1);
  obs::RoundTelemetry* const tel = with_telemetry ? &telemetry : nullptr;

  for (const campaign::Scenario& spec : points) {
    bool slow = false;
    for (const std::string& tag : spec.tags) slow = slow || tag == "slow";
    if (quick && slow) continue;
    if (!filter.empty() && spec.name.find(filter) == std::string::npos) {
      continue;
    }
    const int rank = size_rank(spec);

    const DualGraph net = spec.network();
    const ProcessFactory factory = spec.algorithm(net);

    const Measurement fast =
        run_one(spec, net, factory, EngineKind::Csr, repeat, tel);
    record(fast);

    // The dense engine's O(n) rounds make 100k+ points minutes-slow; the
    // comparison points are the 1k and 10k grid.
    if (rank <= 1) {
      const Measurement ref =
          run_one(spec, net, factory, EngineKind::Reference, repeat, tel);
      record(ref);
      if (ref.rounds_per_sec > 0) {
        speedups[spec.name] = fast.rounds_per_sec / ref.rounds_per_sec;
      }
    }
  }
  table.print(std::cout);
  if (!g_rss_per_scenario) {
    std::cout << "note: /proc/self/clear_refs unavailable; peak RSS is the "
                 "monotone process-wide high-water mark\n";
  }

  if (with_telemetry && !measurements.empty()) {
    std::cout << "\nphase breakdown (--telemetry; % of phase-timed wall, "
                 "last run):\n";
    for (const Measurement& m : measurements) {
      std::uint64_t total = 0;
      for (const std::uint64_t ns : m.phase_ns) total += ns;
      if (total == 0) continue;
      std::printf("  %-45s %-10s", m.scenario.c_str(), m.engine.c_str());
      for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
        std::printf(" %s %4.1f%%",
                    obs::phase_name(static_cast<obs::Phase>(p)),
                    100.0 * static_cast<double>(m.phase_ns[p]) /
                        static_cast<double>(total));
      }
      std::printf("\n");
    }
  }

  if (measurements.empty()) {
    // A filter typo must not turn the CI gates into a vacuous pass.
    std::cerr << "error: no scale scenario matched (quick=" << quick
              << ", filter='" << filter << "')\n";
    return 1;
  }

  std::cout << "\nspeedup (csr rounds/sec over reference):\n";
  for (const auto& [name, speedup] : speedups) {
    std::printf("  %-45s %.2fx\n", name.c_str(), speedup);
  }

  write_json(out_path, repeat, measurements, speedups);
  std::cout << "\nwrote " << out_path << "\n";
  return gates_ok ? 0 : 1;
}
