// dualrad_campaign — run registered experiment campaigns on the parallel
// trial executor.
//
// Examples:
//   dualrad_campaign --list
//   dualrad_campaign --list --filter=harmonic
//   dualrad_campaign --filter=dual --threads=8 --seed=42
//               --jsonl=trials.jsonl --summary-csv=summary.csv
//
// Runs the cross product (scenario x trial) across worker threads with
// deterministic per-trial seeding: for a fixed --seed, all output files are
// byte-identical regardless of --threads.

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "campaign/builtin_scenarios.hpp"
#include "campaign/contract.hpp"
#include "campaign/engine.hpp"
#include "campaign/export.hpp"
#include "campaign/jsonl.hpp"
#include "core/audit.hpp"
#include "core/rng.hpp"
#include "graph/dual_graph.hpp"
#include "mac/mac_latency.hpp"
#include "obs/perfetto_writer.hpp"
#include "obs/telemetry.hpp"
#include "serve/checkpoint.hpp"
#include "stats/table.hpp"

namespace {

using namespace dualrad;
using campaign::jsonl::parse_into;

struct Options {
  bool list = false;
  bool quiet = false;
  bool help = false;
  bool timing = false;
  bool audit = false;
  bool fail_on_contract = false;
  std::string filter;
  std::uint64_t seed = 1;
  unsigned threads = 0;
  std::size_t trials = 0;  // 0 = per-scenario default
  std::string jsonl_path;
  std::string csv_path;
  std::string summary_jsonl_path;
  std::string summary_csv_path;
  std::string mac_jsonl_path;
  std::string telemetry_jsonl_path;
  std::string perfetto_path;
  std::string perfetto_scenario;
  unsigned heartbeat_secs = 0;
  std::string journal_path;
  std::string resume_path;
};

// SIGINT/SIGTERM raise this; the engine checks it between trials, so a ^C
// mid-campaign flushes the journal (every committed row is already fsynced)
// and exits nonzero instead of dying with partial in-memory state.
std::atomic<bool> g_cancel{false};

extern "C" void on_cancel_signal(int) {
  g_cancel.store(true, std::memory_order_relaxed);
}

void usage() {
  std::puts(
      "usage: dualrad_campaign [options]\n"
      "  --list              list matching scenarios instead of running\n"
      "  --filter=SUBSTR     restrict to scenarios whose name or tags\n"
      "                      contain SUBSTR (default: all)\n"
      "  --seed=N            master seed (default 1)\n"
      "  --threads=N         worker threads (default: hardware concurrency;\n"
      "                      output is identical for any value)\n"
      "  --trials=N          override every scenario's trial count\n"
      "  --jsonl=PATH        write per-trial rows as JSONL\n"
      "  --csv=PATH          write per-trial rows as CSV\n"
      "  --summary-jsonl=PATH  write per-scenario summaries as JSONL\n"
      "  --summary-csv=PATH    write per-scenario summaries as CSV\n"
      "  --mac-jsonl=PATH    write per-trial MAC ack/progress latencies as\n"
      "                      JSONL (measured f_ack / f_prog; rows sorted by\n"
      "                      scenario and trial, so output is deterministic)\n"
      "  --timing            measure per-trial wall time and include it in\n"
      "                      trial/summary exports (wall_us / mean_wall_ms;\n"
      "                      timed exports are NOT byte-reproducible)\n"
      "  --telemetry-jsonl=PATH  attach the engine telemetry layer to every\n"
      "                      trial and write per-trial phase times + counter\n"
      "                      totals as JSONL. Opt-in; the default exports\n"
      "                      above stay byte-identical either way\n"
      "  --heartbeat=SECS    print a progress line to stderr every SECS\n"
      "                      seconds (trials done/total, rounds/s, eta, rss)\n"
      "  --journal=PATH      append every completed trial row to a crash-safe\n"
      "                      checkpoint journal (whole-line writes + fsync).\n"
      "                      With --telemetry-jsonl, telemetry rows are\n"
      "                      journaled alongside their trial rows.\n"
      "                      On SIGINT/SIGTERM the campaign stops cleanly,\n"
      "                      exits nonzero, and can be continued later\n"
      "  --resume=PATH       load a checkpoint journal and skip its trials;\n"
      "                      continues appending to the same file unless\n"
      "                      --journal names another. Journaled telemetry\n"
      "                      rows are replayed into --telemetry-jsonl. The\n"
      "                      merged output is byte-identical to an\n"
      "                      uninterrupted run\n"
      "  --perfetto=PATH     after the campaign, deterministically re-run one\n"
      "                      trial (trial 0 of --perfetto-scenario, default\n"
      "                      the first matching scenario) with telemetry and\n"
      "                      write a Chrome/Perfetto trace (ui.perfetto.dev)\n"
      "  --perfetto-scenario=NAME  scenario to trace (see --perfetto)\n"
      "  --audit             record a compressed trace of every trial and\n"
      "                      re-verify it with the execution auditor\n"
      "                      (core/audit.hpp). Forged-token wins (Byzantine\n"
      "                      scenarios, src/byz/) are reported on stderr; any\n"
      "                      model violation exits 4. Results and exports are\n"
      "                      byte-identical with or without this flag\n"
      "  --fail-on-contract  check the broadcast contract (validity /\n"
      "                      no-duplication / no-creation, including forged-\n"
      "                      token wins) on every trial; any violation is\n"
      "                      printed to stderr and the run exits 3\n"
      "  --quiet             suppress the summary table on stdout\n");
}

std::optional<Options> parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> std::optional<std::string> {
      const std::string p(prefix);
      if (arg.rfind(p, 0) == 0) return arg.substr(p.size());
      return std::nullopt;
    };
    const auto malformed = [&arg]() -> std::optional<Options> {
      std::fprintf(stderr, "malformed numeric argument: %s\n", arg.c_str());
      return std::nullopt;
    };
    if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (arg == "--list") {
      options.list = true;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (arg == "--timing") {
      options.timing = true;
    } else if (arg == "--audit") {
      options.audit = true;
    } else if (arg == "--fail-on-contract") {
      options.fail_on_contract = true;
    } else if (auto v = value("--mac-jsonl=")) {
      options.mac_jsonl_path = *v;
    } else if (auto v = value("--telemetry-jsonl=")) {
      options.telemetry_jsonl_path = *v;
    } else if (auto v = value("--heartbeat=")) {
      if (!parse_into(*v, options.heartbeat_secs)) return malformed();
    } else if (auto v = value("--journal=")) {
      options.journal_path = *v;
    } else if (auto v = value("--resume=")) {
      options.resume_path = *v;
    } else if (auto v = value("--perfetto-scenario=")) {
      options.perfetto_scenario = *v;
    } else if (auto v = value("--perfetto=")) {
      options.perfetto_path = *v;
    } else if (auto v = value("--filter=")) {
      options.filter = *v;
    } else if (auto v = value("--seed=")) {
      if (!parse_into(*v, options.seed)) return malformed();
    } else if (auto v = value("--threads=")) {
      if (!parse_into(*v, options.threads)) return malformed();
    } else if (auto v = value("--trials=")) {
      if (!parse_into(*v, options.trials)) return malformed();
    } else if (auto v = value("--jsonl=")) {
      options.jsonl_path = *v;
    } else if (auto v = value("--csv=")) {
      options.csv_path = *v;
    } else if (auto v = value("--summary-jsonl=")) {
      options.summary_jsonl_path = *v;
    } else if (auto v = value("--summary-csv=")) {
      options.summary_csv_path = *v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return std::nullopt;
    }
  }
  return options;
}

void list_scenarios(const std::vector<campaign::Scenario>& scenarios) {
  stats::Table table({"scenario", "trials", "rule", "start", "tags"});
  for (const campaign::Scenario& s : scenarios) {
    std::string tags;
    for (const std::string& t : s.tags) {
      if (!tags.empty()) tags += ',';
      tags += t;
    }
    table.add_row({s.name, std::to_string(s.trials), to_string(s.rule),
                   to_string(s.start), tags});
  }
  table.print(std::cout);
  std::cout << "\n" << scenarios.size() << " scenario(s)\n";
}

void print_summaries(const campaign::CampaignResult& result, bool timing) {
  std::vector<std::string> header = {"scenario", "trials",     "failed",
                                     "mean rounds", "median", "p90",
                                     "mean sends"};
  if (timing) header.push_back("mean ms");
  stats::Table table(header);
  for (const campaign::ScenarioSummary& s : result.summaries) {
    const bool any = s.rounds.count > 0;
    std::vector<std::string> row = {
        s.scenario, std::to_string(s.trials), std::to_string(s.failures),
        any ? stats::Table::num(s.rounds.mean, 1) : "-",
        any ? stats::Table::num(s.rounds.median, 1) : "-",
        any ? stats::Table::num(s.rounds.p90, 1) : "-",
        stats::Table::num(s.mean_sends, 1)};
    if (timing) row.push_back(stats::Table::num(s.mean_wall_ms, 2));
    table.add_row(row);
  }
  table.print(std::cout);
}

std::string mac_rows_to_jsonl(const std::vector<mac::TrialLatencyRow>& rows) {
  const auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return std::string(buf);
  };
  std::string out;
  for (const mac::TrialLatencyRow& r : rows) {
    const mac::MacLatencySummary& l = r.latency;
    out += "{\"scenario\":\"" + r.scenario + "\"";
    out += ",\"trial\":" + std::to_string(r.trial);
    out += ",\"acks\":" + std::to_string(l.acks);
    out += ",\"ack_max\":" + num(l.ack_max);
    out += ",\"ack_mean\":" + num(l.ack_mean);
    out += ",\"prog_samples\":" + std::to_string(l.prog_samples);
    out += ",\"prog_max\":" + std::to_string(l.prog_max);
    out += ",\"prog_mean\":" + num(l.prog_mean);
    out += ",\"unreached\":" + std::to_string(l.unreached);
    out += "}\n";
  }
  return out;
}

// Deterministically re-run one trial with telemetry attached and write a
// Chrome/Perfetto trace. Mirrors the engine's per-trial setup exactly
// (trial_seed, mix_seed(seed, 0xAD) adversary), so the traced execution is
// the same one the campaign ran.
void write_perfetto_for(const campaign::Scenario& scenario,
                        std::uint64_t master_seed, const std::string& path) {
  const DualGraph net = scenario.network();
  const ProcessFactory factory = scenario.algorithm(net);
  const std::uint64_t seed =
      campaign::trial_seed(master_seed, scenario.name, 0);
  const std::unique_ptr<Adversary> adversary =
      scenario.adversary(mix_seed(seed, 0xAD));

  SimConfig sim;
  sim.rule = scenario.rule;
  sim.start = scenario.start;
  sim.max_rounds = scenario.max_rounds;
  sim.seed = seed;
  sim.token_sources = scenario.token_sources;
  obs::RoundTelemetry telemetry;  // default window: last 4096 rounds
  sim.telemetry = &telemetry;
  if (scenario.runner) {
    (void)scenario.runner(net, factory, *adversary, sim);
  } else {
    (void)run_broadcast(net, factory, *adversary, sim);
  }
  obs::write_perfetto_trace(telemetry, path, scenario.name);
  std::fprintf(stderr, "[campaign] perfetto trace of %s trial 0 -> %s\n",
               scenario.name.c_str(), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parse(argc, argv);
  if (!parsed.has_value()) {
    usage();
    return 2;
  }
  Options options = *parsed;
  if (options.help) {
    usage();
    return 0;
  }
  // Resuming implies continuing the same journal unless told otherwise.
  if (!options.resume_path.empty() && options.journal_path.empty()) {
    options.journal_path = options.resume_path;
  }
  try {
    const campaign::ScenarioRegistry registry = campaign::builtin_registry();
    const std::vector<campaign::Scenario> scenarios =
        registry.match(options.filter);
    if (scenarios.empty()) {
      std::fprintf(stderr, "no scenario matches filter '%s'\n",
                   options.filter.c_str());
      return 1;
    }
    if (options.list) {
      list_scenarios(scenarios);
      return 0;
    }

    campaign::CampaignConfig config;
    config.master_seed = options.seed;
    config.threads = options.threads;
    config.trials_override = options.trials;
    config.measure_wall_time = options.timing;
    config.collect_telemetry = !options.telemetry_jsonl_path.empty();
    config.heartbeat_secs = options.heartbeat_secs;

    // Checkpoint/resume plumbing. The journal sees each row as it commits
    // (under the engine's serialization lock); resume rows fill their slots
    // without re-execution, and the engine validates their seeds so a wrong
    // --seed or grid fails loudly instead of merging foreign rows.
    std::vector<campaign::TrialRow> resume_rows;
    std::vector<campaign::TelemetryRow> journal_telemetry;
    if (!options.resume_path.empty()) {
      const serve::JournalLoad loaded =
          serve::load_journal(options.resume_path);
      serve::truncate_torn_tail(options.resume_path, loaded);
      resume_rows = loaded.rows;
      journal_telemetry = loaded.telemetry;
      std::fprintf(stderr,
                   "[campaign] resume: %zu committed trial(s) from %s%s\n",
                   resume_rows.size(), options.resume_path.c_str(),
                   loaded.dropped_torn_tail ? " (dropped torn tail line)" : "");
      config.resume_rows = &resume_rows;
    }
    serve::JournalWriter journal;
    if (!options.journal_path.empty()) {
      journal.open(options.journal_path);
      config.row_sink = [&journal](const campaign::TrialRow& row,
                                   const campaign::TelemetryRow* telemetry) {
        campaign::TrialRow untimed = row;
        untimed.wall_us = -1;
        journal.append(untimed);
        // Telemetry rides the same crash-safe journal so --resume can
        // reconstruct the full --telemetry-jsonl without re-running trials.
        if (telemetry != nullptr) journal.append(*telemetry);
      };
    }
    std::signal(SIGINT, on_cancel_signal);
    std::signal(SIGTERM, on_cancel_signal);
    config.cancel = &g_cancel;

    // --audit: re-verify every trial's execution trace out-of-band. The
    // auditor needs a recorded trace, so trials run with compressed traces —
    // rows and exports stay byte-identical; the trace is dropped after the
    // observer fires. Installed by direct assignment, so it must come before
    // the chaining attach() observers below.
    std::map<std::string, DualGraph> audit_nets;
    std::vector<std::string> audit_failures;
    std::vector<std::string> audit_forged_wins;
    if (options.audit) {
      config.trial_trace = TraceLevel::Compressed;
      config.observer = [&](const campaign::Scenario& scenario,
                            const campaign::TrialRow& row,
                            const SimResult& result) {
        // The engine keeps its networks private; rebuild one per scenario
        // (builders are deterministic) and cache it. The engine serializes
        // observers, so the cache needs no lock.
        auto it = audit_nets.find(scenario.name);
        if (it == audit_nets.end()) {
          it = audit_nets.emplace(scenario.name, scenario.network()).first;
        }
        const audit::AuditReport report = audit::audit_execution(
            it->second, result, scenario.rule, scenario.token_sources);
        const std::string tag = scenario.name + "#" + std::to_string(row.trial);
        for (const std::string& v : report.violations) {
          audit_failures.push_back(tag + " " + v);
        }
        for (const std::string& w : report.forged_wins) {
          audit_forged_wins.push_back(tag + " " + w);
        }
      };
    }

    // --fail-on-contract: the broadcast-contract checker (attach() chains
    // the audit observer above, if any).
    std::optional<campaign::ContractObserver> contract;
    if (options.fail_on_contract) {
      contract.emplace();
      contract->attach(config);
    }

    // --mac-jsonl: measure f_ack / f_prog per trial from the full SimResult
    // (progress latency is meaningful for any broadcast scenario; the ack
    // columns are -1 outside MAC workloads).
    std::optional<mac::LatencyCollector> collector;
    if (!options.mac_jsonl_path.empty()) {
      collector.emplace(scenarios);
      collector->attach(config);
    }

    const campaign::CampaignResult result =
        campaign::run_campaign(scenarios, config);

    if (result.cancelled) {
      if (!options.journal_path.empty()) {
        std::fprintf(stderr,
                     "[campaign] interrupted — journal %s is durable; "
                     "continue with --resume=%s\n",
                     options.journal_path.c_str(),
                     options.journal_path.c_str());
      } else {
        std::fprintf(stderr,
                     "[campaign] interrupted — no --journal, partial results "
                     "discarded\n");
      }
      return 130;
    }

    if (!options.jsonl_path.empty()) {
      campaign::write_file(
          options.jsonl_path,
          campaign::trials_to_jsonl(result.trials, options.timing));
    }
    if (!options.csv_path.empty()) {
      campaign::write_file(
          options.csv_path,
          campaign::trials_to_csv(result.trials, options.timing));
    }
    if (!options.summary_jsonl_path.empty()) {
      campaign::write_file(
          options.summary_jsonl_path,
          campaign::summaries_to_jsonl(result.summaries, options.timing));
    }
    if (!options.summary_csv_path.empty()) {
      campaign::write_file(
          options.summary_csv_path,
          campaign::summaries_to_csv(result.summaries, options.timing));
    }
    if (collector.has_value()) {
      campaign::write_file(options.mac_jsonl_path,
                           mac_rows_to_jsonl(collector->sorted_rows()));
    }
    if (!options.telemetry_jsonl_path.empty()) {
      // Resumed trials skip execution, so their telemetry slots are empty;
      // fill them from rows replayed out of the journal (keyed by scenario
      // and trial), then drop any still-empty slot — a journal written
      // without --telemetry-jsonl has trial rows but no telemetry.
      std::vector<campaign::TelemetryRow> rows = result.telemetry;
      if (!journal_telemetry.empty()) {
        std::map<std::pair<std::string, std::uint32_t>,
                 const campaign::TelemetryRow*>
            replay;
        for (const campaign::TelemetryRow& t : journal_telemetry) {
          replay.emplace(std::make_pair(t.scenario, t.trial), &t);
        }
        for (std::size_t i = 0; i < rows.size() && i < result.trials.size();
             ++i) {
          if (!rows[i].scenario.empty()) continue;  // ran this session
          const campaign::TrialRow& trial = result.trials[i];
          const auto it =
              replay.find(std::make_pair(trial.scenario, trial.trial));
          if (it != replay.end()) rows[i] = *it->second;
        }
      }
      rows.erase(std::remove_if(rows.begin(), rows.end(),
                                [](const campaign::TelemetryRow& t) {
                                  return t.scenario.empty();
                                }),
                 rows.end());
      campaign::write_file(options.telemetry_jsonl_path,
                           campaign::telemetry_to_jsonl(rows));
    }
    if (!options.perfetto_path.empty()) {
      const campaign::Scenario* traced = &scenarios.front();
      if (!options.perfetto_scenario.empty()) {
        traced = nullptr;
        for (const campaign::Scenario& s : scenarios) {
          if (s.name == options.perfetto_scenario) traced = &s;
        }
        if (traced == nullptr) {
          std::fprintf(stderr, "--perfetto-scenario '%s' matches no scenario\n",
                       options.perfetto_scenario.c_str());
          return 1;
        }
      }
      write_perfetto_for(*traced, options.seed, options.perfetto_path);
    }
    if (!options.quiet) print_summaries(result, options.timing);

    // Verification verdicts come last so exports above are written either
    // way (a failing campaign's rows are still evidence). Contract trumps
    // audit in the exit code when both trip.
    if (options.audit) {
      for (const std::string& w : audit_forged_wins) {
        std::fprintf(stderr, "[audit] forged-token win: %s\n", w.c_str());
      }
      for (const std::string& v : audit_failures) {
        std::fprintf(stderr, "[audit] FAIL: %s\n", v.c_str());
      }
      if (audit_failures.empty()) {
        std::fprintf(stderr, "[audit] %zu trial trace(s) verified clean\n",
                     result.trials.size());
      }
    }
    if (contract.has_value()) {
      for (const std::string& v : contract->violations()) {
        std::fprintf(stderr, "[contract] FAIL: %s\n", v.c_str());
      }
      if (contract->violations().empty()) {
        std::fprintf(stderr,
                     "[contract] %zu trial(s) satisfy the broadcast contract\n",
                     contract->trials_checked());
      }
    }
    if (contract.has_value() && !contract->violations().empty()) return 3;
    if (!audit_failures.empty()) return 4;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
