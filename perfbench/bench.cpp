// dualrad_bench — the repository benchmark program.
//
// Runs one workload of the benchmark against the dualrad library's public
// entry points (campaign::run_campaign, the trace audit, the broadcast
// contract) and the dualrad_serve binary, checks the correctness gate, and
// prints one JSON result line. perfbench/run.py builds this program and is the
// command to use; perfbench/README.md defines the workloads and metrics.
//
//   dualrad_bench --workload=campaign-mix --seed=7 --seconds=10 --trace=0
//       --serve-bin=PATH --out=DIR --digests=perfbench/digests.txt
//
// --trace=0 prints the end-to-end metrics (tracing off). --trace=1 prints the
// per-layer metrics of a separate traced pass: spans recorded from this
// file around each call into a layer, plus obs::RoundTelemetry totals via
// CampaignConfig::collect_telemetry. Exit status: 0 when the gate holds, 1
// when it trips (the result line then says "correct": false), 2 on bad usage.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/inotify.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/builtin_scenarios.hpp"
#include "campaign/contract.hpp"
#include "campaign/engine.hpp"
#include "campaign/export.hpp"
#include "campaign/jsonl.hpp"
#include "core/audit.hpp"
#include "obs/rss.hpp"
#include "obs/telemetry.hpp"
#include "serve/checkpoint.hpp"
#include "serve/wire.hpp"
#include "spans.hpp"

namespace {

using namespace dualrad;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

[[nodiscard]] double now_s() {
  return static_cast<double>(obs::monotonic_ns()) / 1e9;
}

// --- options -----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool reduced = false;   ///< small grids, for the benchmark's own test
  std::string tamper;     ///< "row" or "serve": corrupt an export (gate test)
  std::string serve_bin;
  std::string out_dir;
  std::string digests;
};

std::optional<Options> parse(int argc, char** argv) try {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* key) -> std::optional<std::string> {
      const std::string prefix = std::string(key) + "=";
      if (arg.rfind(prefix, 0) != 0) return std::nullopt;
      return arg.substr(prefix.size());
    };
    if (auto v = value("--workload")) {
      o.workload = *v;
    } else if (auto v = value("--seed")) {
      o.seed = std::stoull(*v);
    } else if (auto v = value("--seconds")) {
      o.seconds = std::stod(*v);
    } else if (auto v = value("--trace")) {
      o.trace = std::stoi(*v) != 0;
    } else if (auto v = value("--tamper")) {
      o.tamper = *v;
    } else if (auto v = value("--serve-bin")) {
      o.serve_bin = *v;
    } else if (auto v = value("--out")) {
      o.out_dir = *v;
    } else if (auto v = value("--digests")) {
      o.digests = *v;
    } else if (arg == "--reduced") {
      o.reduced = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return std::nullopt;
    }
  }
  if (o.workload.empty() || o.serve_bin.empty() || o.out_dir.empty() ||
      o.digests.empty() || o.seconds <= 0.0 ||
      (!o.tamper.empty() && o.tamper != "row" && o.tamper != "serve")) {
    return std::nullopt;
  }
  return o;
} catch (const std::exception&) {
  return std::nullopt;
}

// --- samples -----------------------------------------------------------------

/// Quantile by linear interpolation between closest ranks.
[[nodiscard]] double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

[[nodiscard]] double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}

/// a / b, or 0 when b is 0 (a layer that did no work).
[[nodiscard]] double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Named metric samples of one run; a metric's value is the median of its
/// samples, and the run's detail line records the quartiles beside it.
class Metrics {
 public:
  void add(const std::string& name, const char* unit, double value) {
    Series& s = series_[name];
    s.unit = unit;
    s.samples.push_back(value);
  }
  [[nodiscard]] double value(const std::string& name) const {
    const auto it = series_.find(name);
    return it == series_.end() ? 0.0 : median(it->second.samples);
  }
  [[nodiscard]] bool has(const std::string& name) const {
    return series_.count(name) != 0;
  }

  struct Series {
    std::string unit;
    std::vector<double> samples;
  };
  [[nodiscard]] const std::map<std::string, Series>& all() const {
    return series_;
  }

 private:
  std::map<std::string, Series> series_;
};

/// Shortest round-trip decimal form of a double (every digit as measured).
[[nodiscard]] std::string num(double x) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, x);
  return std::string(buf, res.ptr);
}

// --- workloads ---------------------------------------------------------------

struct GridEntry {
  const char* scenario;
  std::size_t trials;
  std::size_t reduced_trials;
};

struct Workload {
  const char* name;
  bool serve = false;       ///< run through dualrad_serve instead of batch
  bool one_thread = false;  ///< executor at 1 thread (else nproc)
  bool audited = false;     ///< Compressed traces + audit of every trial
  int setup_probes = 0;     ///< extra set-up-only campaigns per run
  std::vector<GridEntry> grid;
  std::vector<GridEntry> reduced_grid;  ///< empty: `grid` at reduced_trials
};

// Long trials first in every grid, so the executor's tail is short ones.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"engine-1m", false, true, false, 2,
       {{"scale/decay/layered-1m/benign", 4, 1}},
       {{"scale/decay/layered-100k/benign", 1, 1}}},
      {"campaign-mix", false, false, false, 3,
       {{"scale/decay/grayzone-10k/greedy", 8, 1},
        {"scale/decay/layered-10k/greedy", 8, 1},
        {"scale/decay/grayzone-10k/bernoulli:0.1", 8, 1},
        {"scale/decay/layered-10k/bernoulli:0.1", 8, 1},
        {"scale/decay/grayzone-10k/benign", 8, 1},
        {"scale/decay/layered-10k/benign", 8, 1},
        {"scale/decay/layered-1k/greedy", 120, 2},
        {"scale/decay/grayzone-1k/greedy", 120, 2},
        {"scale/decay/layered-1k/bernoulli:0.1", 120, 2},
        {"scale/decay/grayzone-1k/bernoulli:0.1", 120, 2},
        {"scale/decay/layered-1k/benign", 120, 2},
        {"scale/decay/grayzone-1k/benign", 120, 2},
        {"mac/bmmb-decay/grayzone/k=16/benign", 100, 2},
        {"mac/bmmb-decay/layered/k=16/bernoulli:0.5", 100, 2},
        {"mac/bmmb-decay/grayzone/k=4/bernoulli:0.3", 100, 2},
        {"mac/bmmb-decay/layered/k=4/benign", 100, 2},
        {"mac/bmmb-decay/layered/k=4/greedy", 100, 2},
        {"mac/bmmb-decay/layered/k=1/benign", 100, 2}},
       {}},
      {"serve-short", true, false, false, 0,
       {{"scale/decay/layered-1k/benign", 3200, 20}},
       {}},
      {"audited", false, false, true, 3,
       {{"byz/layered-1k/cpa/f=1-forge", 6, 1},
        {"scale/decay/grayzone-10k/greedy", 1, 1},
        {"byz/grayzone-1k/cpa/f=2-silent", 16, 1},
        {"byz/layered-1k/cpa/f=1-silent", 24, 1},
        {"mac/bmmb-decay/grayzone/k=16/benign", 10, 1},
        {"mac/bmmb-decay/layered/k=16/bernoulli:0.5", 10, 1},
        {"mac/bmmb-decay/grayzone/k=4/bernoulli:0.3", 10, 1},
        {"mac/bmmb-decay/layered/k=4/benign", 10, 1},
        {"mac/bmmb-decay/layered/k=4/greedy", 10, 1},
        {"mac/bmmb-decay/layered/k=1/benign", 10, 1}},
       {}},
  };
  return all;
}

[[nodiscard]] std::vector<campaign::Scenario> grid_scenarios(
    const Workload& w, bool reduced) {
  const campaign::ScenarioRegistry registry = campaign::builtin_registry();
  const std::vector<GridEntry>& grid =
      reduced && !w.reduced_grid.empty() ? w.reduced_grid : w.grid;
  std::vector<campaign::Scenario> out;
  for (const GridEntry& e : grid) {
    campaign::Scenario s = registry.at(e.scenario);
    s.trials = reduced ? e.reduced_trials : e.trials;
    out.push_back(std::move(s));
  }
  return out;
}

[[nodiscard]] std::size_t total_trials(
    const std::vector<campaign::Scenario>& scenarios) {
  std::size_t n = 0;
  for (const campaign::Scenario& s : scenarios) n += s.trials;
  return n;
}

[[nodiscard]] unsigned nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// --- correctness gate --------------------------------------------------------

/// Every check that fails a run. `failed` counts trials: a trial that threw,
/// sat in a quarantined serve unit, broke the contract or the audit, or
/// whose export row differs from the reference.
struct Gate {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t incomplete = 0;  ///< broadcasts that never completed (not failures)
  std::string export_digest;   ///< fnv1a64 of the run's first export
  std::vector<std::string> reasons;

  void fail(const std::string& why, std::size_t trials) {
    failed += trials;
    if (reasons.size() < 16) reasons.push_back(why);
  }
  [[nodiscard]] bool ok() const { return reasons.empty(); }
};

[[nodiscard]] std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

[[nodiscard]] std::string hex64(std::uint64_t x) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(x));
  return buf;
}

/// Lines of `a` and `b` that differ (pairwise, plus any length difference).
[[nodiscard]] std::size_t differing_lines(const std::string& a,
                                          const std::string& b) {
  std::istringstream sa(a), sb(b);
  std::string la, lb;
  std::size_t diff = 0;
  for (;;) {
    const bool ga = static_cast<bool>(std::getline(sa, la));
    const bool gb = static_cast<bool>(std::getline(sb, lb));
    if (!ga && !gb) return diff;
    if (ga != gb || la != lb) ++diff;
  }
}

/// Digest recorded with the benchmark for the default seed, from lines
/// "<workload>[/reduced] <seed> <fnv1a64-hex>" of the digests file ('#'
/// starts a comment line).
[[nodiscard]] std::optional<std::string> recorded_digest(const Options& o) {
  std::ifstream in(o.digests);
  const std::string key = o.workload + (o.reduced ? "/reduced" : "");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name, seed, digest;
    if (line.rfind('#', 0) == 0 || !(fields >> name >> seed >> digest)) continue;
    if (name == key && seed == std::to_string(o.seed)) return digest;
  }
  return std::nullopt;
}

constexpr std::uint64_t kDefaultSeed = 1;

/// Compare an export against the reference of its run (every repeat of a
/// grid must export the same bytes) and, for the default seed, against the
/// digest recorded with the benchmark.
void check_export(const Options& o, const std::string& text,
                  std::string& reference, std::size_t trials, Gate& gate) {
  if (reference.empty()) {
    reference = text;
    gate.export_digest = hex64(fnv1a64(text));
    if (o.seed != kDefaultSeed) return;
    const std::optional<std::string> want = recorded_digest(o);
    if (!want.has_value()) {
      gate.fail("no digest recorded for " + o.workload + " seed " +
                    std::to_string(o.seed),
                trials);
    } else if (*want != gate.export_digest) {
      gate.fail("export digest " + gate.export_digest +
                    " differs from the recorded " + *want,
                trials);
    }
    return;
  }
  if (text != reference) {
    gate.fail("export differs from the run's first export",
              differing_lines(text, reference));
  }
}

/// The --tamper=row hook: change one exported row (its sends count).
void tamper_row(std::string& text) {
  const std::size_t at = text.find("\"sends\":");
  if (at != std::string::npos) text.insert(at + 8, "1");
}

// --- batch campaigns ---------------------------------------------------------

/// Thrown by the wrapped adversary factory — the first call of every trial —
/// to stop a set-up probe before any round runs.
struct SetupProbeStop {};

/// Per-campaign state the wrapped scenario builders and the observer share.
struct Instrument {
  std::atomic<std::uint64_t> first_trial_ns{0};
  bool stop_at_first_trial = false;
  SpanRecorder* spans = nullptr;  ///< traced runs only
  std::uint64_t campaign_span = 0;
  // Graph and factory layers (traced runs; builders run serially).
  double build_s = 0.0;
  double factory_s = 0.0;
  double build_rss_mb = 0.0;
  std::uint64_t edges = 0;
  // Observer-side layers.
  std::size_t violating_trials = 0;
  std::size_t incomplete = 0;
  std::vector<std::string> violations;
  double contract_s = 0.0;
  double audit_s = 0.0;
  std::uint64_t audit_rounds = 0;
  std::uint64_t trace_bytes = 0;
  std::uint64_t forged_injections = 0;

  void reset(bool probe) {
    first_trial_ns.store(0);
    stop_at_first_trial = probe;
    build_s = factory_s = build_rss_mb = 0.0;
    edges = 0;
    violating_trials = incomplete = 0;
    violations.clear();
    contract_s = audit_s = 0.0;
    audit_rounds = trace_bytes = forged_injections = 0;
  }
};

thread_local std::uint64_t t_trial_span = 0;

/// Copies of the grid's scenarios whose builders report to `ins`: network()
/// is the graph layer, algorithm() the process factory, and the adversary
/// factory marks the start of a trial.
[[nodiscard]] std::vector<campaign::Scenario> instrument(
    const std::vector<campaign::Scenario>& base, Instrument& ins) {
  std::vector<campaign::Scenario> out = base;
  for (campaign::Scenario& s : out) {
    s.network = [network = s.network, &ins, name = s.name]() {
      if (ins.spans == nullptr) return network();
      const ScopedSpan span(ins.spans, "graph", "graph.build",
                            ins.campaign_span, name);
      obs::reset_peak();
      const double rss_before = obs::current_rss_mb();
      const double t0 = now_s();
      DualGraph net = network();
      ins.build_s += now_s() - t0;
      ins.build_rss_mb += obs::peak_rss_mb() - rss_before;
      ins.edges += net.g_csr().edge_count() + net.unreliable_edge_count();
      return net;
    };
    s.algorithm = [algorithm = s.algorithm, &ins,
                   name = s.name](const DualGraph& net) {
      if (ins.spans == nullptr) return algorithm(net);
      const ScopedSpan span(ins.spans, "algorithms", "algorithms.factory",
                            ins.campaign_span, name);
      const double t0 = now_s();
      ProcessFactory factory = algorithm(net);
      ins.factory_s += now_s() - t0;
      return factory;
    };
    s.adversary = [adversary = s.adversary, &ins,
                   name = s.name](std::uint64_t seed) {
      std::uint64_t expected = 0;
      ins.first_trial_ns.compare_exchange_strong(expected,
                                                 obs::monotonic_ns());
      if (ins.stop_at_first_trial) throw SetupProbeStop{};
      if (ins.spans != nullptr) {
        t_trial_span = ins.spans->begin("campaign", "campaign.trial",
                                        ins.campaign_span, name);
      }
      return adversary(seed);
    };
  }
  return out;
}

/// The per-trial observer: the broadcast contract on every trial, the trace
/// audit on audited workloads, and the counts the gate and layers report.
/// The engine serializes observer calls.
void observe(Instrument& ins, const std::map<std::string, DualGraph>* nets,
             const campaign::Scenario& scenario, const campaign::TrialRow& row,
             const SimResult& result) {
  const std::uint64_t trial_span = ins.spans != nullptr ? t_trial_span : 0;
  bool violated = false;
  {
    const ScopedSpan span(ins.spans, "contract", "contract.check", trial_span);
    const double t0 = now_s();
    const std::vector<std::string> v =
        campaign::check_broadcast_contract(scenario, row, result);
    ins.contract_s += now_s() - t0;
    for (const std::string& s : v) {
      violated = true;
      if (ins.violations.size() < 8) ins.violations.push_back("contract " + s);
    }
  }
  if (nets != nullptr) {
    const ScopedSpan span(ins.spans, "audit", "audit.execution", trial_span);
    const double t0 = now_s();
    const audit::AuditReport report = audit::audit_execution(
        nets->at(scenario.name), result, scenario.rule,
        scenario.token_sources);
    ins.audit_s += now_s() - t0;
    ins.audit_rounds += result.rounds_executed;
    ins.trace_bytes += result.trace.blob.size();
    for (const std::string& s : report.violations) {
      violated = true;
      if (ins.violations.size() < 8) {
        ins.violations.push_back("audit " + row.scenario + "#" +
                                 std::to_string(row.trial) + " " + s);
      }
    }
  }
  for (const ForgedTokenRecord& f : result.forged_tokens) {
    ins.forged_injections += f.injections;
  }
  if (violated) ++ins.violating_trials;
  if (!row.completed) ++ins.incomplete;
  if (ins.spans != nullptr) ins.spans->end(trial_span);
}

/// One run_campaign call, timed from outside.
struct CampaignRun {
  std::size_t trials = 0;
  unsigned threads = 1;
  double setup_s = 0.0;     ///< call -> first trial starts
  double executor_s = 0.0;  ///< first trial starts -> run_campaign returns
  double export_s = 0.0;    ///< trials_to_jsonl + summaries_to_jsonl
  double timed_s = 0.0;     ///< first trial starts -> exports in memory
  std::string export_text;  ///< trials_to_jsonl (the gated export)
  std::size_t export_bytes = 0;
  std::uint64_t rounds = 0;
  std::vector<campaign::TelemetryRow> telemetry;
};

struct BatchContext {
  const Options* options = nullptr;
  const Workload* workload = nullptr;
  std::vector<campaign::Scenario> base;
  std::vector<campaign::Scenario> scenarios;  ///< instrumented copies
  std::map<std::string, DualGraph> audit_nets;
  Instrument ins;
  unsigned threads = 1;
  std::string reference;  ///< first export of this run
  bool tampered = false;
};

void prepare(BatchContext& ctx, const Options& o, const Workload& w) {
  ctx.options = &o;
  ctx.workload = &w;
  ctx.base = grid_scenarios(w, o.reduced);
  ctx.scenarios = instrument(ctx.base, ctx.ins);
  ctx.threads = w.one_thread ? 1 : nproc();
  if (w.audited) {
    for (const campaign::Scenario& s : ctx.base) {
      ctx.audit_nets.emplace(s.name, s.network());
    }
  }
}

[[nodiscard]] campaign::CampaignConfig campaign_config(BatchContext& ctx,
                                                       bool telemetry) {
  campaign::CampaignConfig config;
  config.master_seed = ctx.options->seed;
  config.threads = ctx.threads;
  config.collect_telemetry = telemetry;
  if (ctx.workload->audited) config.trial_trace = TraceLevel::Compressed;
  const std::map<std::string, DualGraph>* nets =
      ctx.workload->audited ? &ctx.audit_nets : nullptr;
  config.observer = [&ins = ctx.ins, nets](const campaign::Scenario& s,
                                           const campaign::TrialRow& row,
                                           const SimResult& result) {
    observe(ins, nets, s, row, result);
  };
  return config;
}

/// Set-up only: run the campaign until its first trial starts, then stop it.
[[nodiscard]] double setup_probe(BatchContext& ctx) {
  ctx.ins.reset(/*probe=*/true);
  const campaign::CampaignConfig config = campaign_config(ctx, false);
  const std::uint64_t t0 = obs::monotonic_ns();
  try {
    (void)campaign::run_campaign(ctx.scenarios, config);
  } catch (const SetupProbeStop&) {
  }
  const std::uint64_t first = ctx.ins.first_trial_ns.load();
  if (first == 0) throw std::runtime_error("set-up probe started no trial");
  return static_cast<double>(first - t0) / 1e9;
}

/// One full campaign; the gate checks its trials and its export.
[[nodiscard]] CampaignRun run_batch(BatchContext& ctx, Gate& gate,
                                    SpanRecorder* spans, std::uint64_t parent) {
  ctx.ins.reset(/*probe=*/false);
  ctx.ins.spans = spans;
  const ScopedSpan campaign_span(spans, "campaign", "campaign.run", parent,
                                 ctx.workload->name);
  ctx.ins.campaign_span = campaign_span.id();
  const campaign::CampaignConfig config =
      campaign_config(ctx, /*telemetry=*/spans != nullptr);

  CampaignRun run;
  run.trials = total_trials(ctx.base);
  run.threads = static_cast<unsigned>(
      std::min<std::size_t>(ctx.threads, run.trials));
  gate.attempted += run.trials;
  const std::uint64_t t0 = obs::monotonic_ns();
  campaign::CampaignResult result;
  try {
    result = campaign::run_campaign(ctx.scenarios, config);
  } catch (const std::exception& e) {
    ctx.ins.spans = nullptr;
    gate.fail(std::string("campaign threw: ") + e.what(), run.trials);
    return run;
  }
  const std::uint64_t t_ret = obs::monotonic_ns();
  {
    const ScopedSpan span(spans, "campaign", "campaign.export",
                          campaign_span.id());
    run.export_text = campaign::trials_to_jsonl(result.trials);
    run.export_bytes = run.export_text.size() +
                       campaign::summaries_to_jsonl(result.summaries).size();
  }
  const std::uint64_t t_exp = obs::monotonic_ns();
  ctx.ins.spans = nullptr;

  const std::uint64_t first = ctx.ins.first_trial_ns.load();
  run.setup_s = static_cast<double>(first - t0) / 1e9;
  run.executor_s = static_cast<double>(t_ret - first) / 1e9;
  run.export_s = static_cast<double>(t_exp - t_ret) / 1e9;
  run.timed_s = static_cast<double>(t_exp - first) / 1e9;
  for (const campaign::TrialRow& row : result.trials) {
    run.rounds += row.rounds_executed;
  }
  run.telemetry = std::move(result.telemetry);

  if (ctx.ins.violating_trials != 0) {
    std::string why = std::to_string(ctx.ins.violating_trials) +
                      " trial(s) broke the contract or audit";
    for (const std::string& v : ctx.ins.violations) why += "; " + v;
    gate.fail(why, ctx.ins.violating_trials);
  }
  gate.incomplete += ctx.ins.incomplete;
  if (ctx.options->tamper == "row" && !ctx.tampered) {
    tamper_row(run.export_text);
    ctx.tampered = true;
  }
  check_export(*ctx.options, run.export_text, ctx.reference, run.trials, gate);
  return run;
}

/// Per-layer metrics of one traced campaign.
void layer_metrics(const BatchContext& ctx, const CampaignRun& run,
                   Metrics& m) {
  const Instrument& ins = ctx.ins;
  m.add("graph.build_s", "s", ins.build_s);
  m.add("graph.edges", "count", static_cast<double>(ins.edges));
  m.add("graph.build_rss_mb", "MB", ins.build_rss_mb);
  m.add("algorithms.factory_s", "s", ins.factory_s);

  std::uint64_t poll = 0, adv = 0, prop = 0, deliver = 0, wall_ns = 0;
  std::uint64_t polled = 0, senders = 0, deliveries = 0, replans = 0;
  std::uint64_t scanned = 0, reach = 0, mac_polled = 0, mac_senders = 0;
  std::vector<double> trial_ms;
  for (const campaign::TelemetryRow& t : run.telemetry) {
    poll += t.poll_ns;
    adv += t.adversary_ns;
    prop += t.propagate_ns;
    deliver += t.deliver_ns;
    wall_ns += static_cast<std::uint64_t>(t.wall_us) * 1000;
    polled += t.polled;
    senders += t.senders;
    deliveries += t.deliveries;
    replans += t.replans;
    scanned += t.calendar_scanned;
    reach += t.reach_appends;
    if (t.scenario.rfind("mac/", 0) == 0) {
      mac_polled += t.polled;
      mac_senders += t.senders;
    }
    trial_ms.push_back(static_cast<double>(t.wall_us) / 1e3);
  }
  const std::uint64_t phases = poll + adv + prop + deliver;
  m.add("core.poll_s", "s", static_cast<double>(poll) / 1e9);
  m.add("core.adversary_s", "s", static_cast<double>(adv) / 1e9);
  m.add("core.propagate_s", "s", static_cast<double>(prop) / 1e9);
  m.add("core.deliver_s", "s", static_cast<double>(deliver) / 1e9);
  // Trial wall minus the four round phases: per-trial setup, result
  // assembly, and any shard merge.
  m.add("core.outside_phases_s", "s",
        (static_cast<double>(wall_ns) - static_cast<double>(phases)) / 1e9);
  m.add("core.rounds", "count", static_cast<double>(run.rounds));
  m.add("core.deliveries", "count", static_cast<double>(deliveries));
  m.add("core.replans", "count", static_cast<double>(replans));
  m.add("core.ns_per_delivery", "ns",
        ratio(static_cast<double>(phases), static_cast<double>(deliveries)));
  m.add("core.send_ratio", "ratio",
        ratio(static_cast<double>(senders), static_cast<double>(polled)));
  m.add("core.calendar_stale_ratio", "ratio",
        ratio(static_cast<double>(scanned) - static_cast<double>(polled),
              static_cast<double>(scanned)));
  m.add("adversary.reach_appends", "count", static_cast<double>(reach));
  m.add("mac.send_ratio", "ratio",
        ratio(static_cast<double>(mac_senders),
              static_cast<double>(mac_polled)));
  m.add("byz.forged_injections", "count",
        static_cast<double>(ins.forged_injections));

  const double capacity = run.threads * run.executor_s;
  const double busy = static_cast<double>(wall_ns) / 1e9;
  m.add("campaign.busy_ratio", "ratio", ratio(busy, capacity));
  m.add("campaign.idle_s", "s", capacity - busy);
  m.add("campaign.trial_ms_p50", "ms", quantile(trial_ms, 0.5));
  m.add("campaign.trial_ms_p99", "ms", quantile(trial_ms, 0.99));
  m.add("campaign.trial_samples", "count", static_cast<double>(trial_ms.size()));
  m.add("campaign.export_s", "s", run.export_s);
  m.add("campaign.export_bytes", "bytes", static_cast<double>(run.export_bytes));
  m.add("campaign.contract_s", "s", ins.contract_s);
  m.add("campaign.trials_incomplete", "count",
        static_cast<double>(ins.incomplete));
  m.add("trace.compressed_bytes", "bytes", static_cast<double>(ins.trace_bytes));
  m.add("audit.s", "s", ins.audit_s);
  m.add("audit.rounds_per_s", "rounds/s",
        ratio(static_cast<double>(ins.audit_rounds), ins.audit_s));
}

// --- serve -------------------------------------------------------------------

[[nodiscard]] std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// VmHWM (kB) of one process; 0 once it has exited.
[[nodiscard]] std::uint64_t vm_hwm_kb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

/// Record the peak RSS of `root` and all its descendants, per process.
void sample_tree_rss(pid_t root, std::map<pid_t, std::uint64_t>& peak_kb) {
  std::vector<pid_t> stack{root};
  while (!stack.empty()) {
    const pid_t pid = stack.back();
    stack.pop_back();
    std::uint64_t& peak = peak_kb[pid];
    peak = std::max(peak, vm_hwm_kb(pid));
    std::ifstream children("/proc/" + std::to_string(pid) + "/task/" +
                           std::to_string(pid) + "/children");
    pid_t child = 0;
    while (children >> child) stack.push_back(child);
  }
}

/// One status RPC to a running coordinator; nullopt when it is unreachable.
[[nodiscard]] std::optional<std::string> status_rpc(const std::string& socket) {
  const int fd = serve::connect_endpoint(socket);
  if (fd < 0) return std::nullopt;
  std::optional<std::string> reply;
  if (serve::send_frame(fd, "{\"type\":\"status\"}")) {
    serve::FrameReader reader;
    bool timed_out = false;
    reply = serve::recv_frame(fd, reader, 1000, &timed_out);
  }
  ::close(fd);
  return reply;
}

struct ServeLaunch {
  int exit_code = -1;
  double setup_s = 0.0;     ///< launch -> first committed row
  double timed_s = 0.0;     ///< first committed row -> exports written
  double wall_s = 0.0;      ///< launch -> exports written (process exit)
  double finalize_s = 0.0;  ///< last committed row -> exports written
  double rss_mb = 0.0;      ///< coordinator plus workers, per-process peaks
  std::uint64_t lease_expiries = 0;
  std::uint64_t speculative = 0;
  std::string export_text;
};

/// Launch `dualrad_serve serve --spawn=N` on the grid, watch its journal
/// for commits (inotify) and its process tree for memory, and wait for it.
[[nodiscard]] ServeLaunch launch_serve(const Options& o,
                                       const campaign::Scenario& scenario,
                                       const std::string& dir,
                                       unsigned workers, SpanRecorder* spans,
                                       std::uint64_t parent) {
  std::filesystem::create_directories(dir);
  const int inotify = ::inotify_init1(IN_CLOEXEC | IN_NONBLOCK);
  if (inotify < 0) throw std::runtime_error("inotify unavailable");
  if (::inotify_add_watch(inotify, dir.c_str(), IN_MODIFY) < 0) {
    ::close(inotify);
    throw std::runtime_error("cannot watch " + dir);
  }
  const std::vector<std::string> args = {
      o.serve_bin,
      "serve",
      "--listen=./serve.sock",
      "--filter=" + scenario.name,
      "--seed=" + std::to_string(o.seed),
      "--trials=" + std::to_string(scenario.trials),
      "--journal=journal",
      "--spawn=" + std::to_string(workers),
      "--jsonl=trials.jsonl",
      "--quiet"};
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const ScopedSpan launch_span(spans, "serve", "serve.launch", parent);
  const std::uint64_t t0 = obs::monotonic_ns();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    if (::chdir(dir.c_str()) != 0) ::_exit(126);
    const int log = ::open("serve.log", O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) {
      ::dup2(log, 1);
      ::dup2(log, 2);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));

  ServeLaunch out;
  std::map<pid_t, std::uint64_t> peak_kb;
  std::uint64_t first_commit = 0, last_commit = 0;
  std::uint64_t last_rss = 0, last_status = 0;
  const std::string socket = dir + "/serve.sock";
  alignas(inotify_event) char buf[4096];
  int status = 0;
  bool exited = false;
  while (!exited) {
    pollfd fds[2] = {{inotify, POLLIN, 0}, {pidfd, POLLIN, 0}};
    (void)::poll(fds, pidfd >= 0 ? 2 : 1, 10);
    const std::uint64_t now = obs::monotonic_ns();
    for (;;) {
      const ssize_t n = ::read(inotify, buf, sizeof buf);
      if (n <= 0) break;
      for (ssize_t at = 0; at < n;) {
        const auto* ev = reinterpret_cast<const inotify_event*>(buf + at);
        if (ev->len > 0 && std::strcmp(ev->name, "journal") == 0) {
          if (first_commit == 0) first_commit = now;
          last_commit = now;
        }
        at += static_cast<ssize_t>(sizeof(inotify_event) + ev->len);
      }
    }
    if (now - last_rss >= 20'000'000) {
      sample_tree_rss(pid, peak_kb);
      last_rss = now;
    }
    if (spans != nullptr && now - last_status >= 50'000'000) {
      const ScopedSpan span(spans, "serve", "serve.status", launch_span.id());
      if (const std::optional<std::string> reply = status_rpc(socket)) {
        const auto count = [&](const char* key) -> std::uint64_t {
          const auto v = campaign::jsonl::field_opt(*reply, key);
          return v.has_value() ? campaign::jsonl::to_u64(*v) : 0;
        };
        out.lease_expiries = std::max(out.lease_expiries, count("lease_expiries"));
        out.speculative =
            std::max(out.speculative, count("speculative_dispatches"));
      }
      last_status = obs::monotonic_ns();
    }
    if (::waitpid(pid, &status, WNOHANG) == pid) exited = true;
    if (!exited && now - t0 > 150'000'000'000ULL) {
      // Overrun: stop the coordinator and every worker it spawned.
      sample_tree_rss(pid, peak_kb);
      for (const auto& [p, peak] : peak_kb) ::kill(p, SIGKILL);
      (void)::waitpid(pid, &status, 0);
      exited = true;
    }
  }
  const std::uint64_t t_exit = obs::monotonic_ns();
  if (pidfd >= 0) ::close(pidfd);
  ::close(inotify);
  out.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  if (first_commit == 0) first_commit = last_commit = t_exit;
  if (spans != nullptr) {
    const std::uint64_t id = launch_span.id();
    spans->record("serve", "serve.setup", id, t0, first_commit);
    spans->record("serve", "serve.run", id, first_commit, last_commit);
    spans->record("serve", "serve.finalize", id, last_commit, t_exit);
  }
  out.setup_s = static_cast<double>(first_commit - t0) / 1e9;
  out.timed_s = static_cast<double>(t_exit - first_commit) / 1e9;
  out.wall_s = static_cast<double>(t_exit - t0) / 1e9;
  out.finalize_s = static_cast<double>(t_exit - last_commit) / 1e9;
  std::uint64_t kb = 0;
  for (const auto& [p, peak] : peak_kb) kb += peak;
  out.rss_mb = static_cast<double>(kb) / 1024.0;
  out.export_text = read_file(dir + "/trials.jsonl");
  return out;
}

/// Gate one serve launch: clean exit (3 = quarantined units) and an export
/// byte-identical to the batch export of the same grid and seed, whose
/// incomplete broadcasts it then shares.
void check_serve(const Options& o, ServeLaunch& launch,
                 const std::string& batch_export,
                 std::size_t batch_incomplete, std::size_t trials,
                 bool& tampered, Gate& gate) {
  gate.attempted += trials;
  if (o.tamper == "serve" && !tampered) {
    tamper_row(launch.export_text);
    tampered = true;
  }
  if (launch.exit_code != 0) {
    gate.fail("dualrad_serve exited with status " +
                  std::to_string(launch.exit_code),
              trials);
  } else if (launch.export_text != batch_export) {
    gate.fail("serve export differs from the batch export",
              differing_lines(launch.export_text, batch_export));
  } else {
    gate.incomplete += batch_incomplete;
  }
}

/// Append the workload's own rows through serve::JournalWriter (fsync on),
/// timing each append.
[[nodiscard]] double journal_append_ms_p50(const std::string& path,
                                           const std::string& batch_export,
                                           SpanRecorder* spans,
                                           std::uint64_t parent) {
  std::vector<campaign::TrialRow> rows =
      campaign::trials_from_jsonl(batch_export);
  if (rows.size() > 200) rows.resize(200);
  ::unlink(path.c_str());
  serve::JournalWriter writer;
  writer.open(path, /*fsync_each=*/true);
  std::vector<double> ms;
  for (const campaign::TrialRow& row : rows) {
    const ScopedSpan span(spans, "serve", "serve.journal_append", parent);
    const double t0 = now_s();
    writer.append(row);
    ms.push_back((now_s() - t0) * 1e3);
  }
  writer.close();
  return median(ms);
}

// --- workload runs -----------------------------------------------------------

/// The tracing overhead: untraced over traced trials_per_s.
void add_tracing_overhead(Metrics& layers, const Metrics& untraced,
                          const Metrics& traced) {
  const double off = untraced.value("tps"), on = traced.value("tps");
  layers.add("tracing.untraced_trials_per_s", "trials/s", off);
  layers.add("tracing.traced_trials_per_s", "trials/s", on);
  layers.add("tracing.overhead_ratio", "ratio", ratio(off, on));
}

/// Repeat `once` until `seconds` of it have elapsed (at least once).
template <class F>
void repeat_for(double seconds, F&& once) {
  const double t0 = now_s();
  do {
    once();
  } while (now_s() - t0 < seconds);
}

void run_batch_workload(const Options& o, const Workload& w, Gate& gate,
                        Metrics& e2e, Metrics& layers, SpanRecorder* spans,
                        std::uint64_t root) {
  BatchContext ctx;
  prepare(ctx, o, w);
  if (!o.trace) {
    for (int i = 0; i < w.setup_probes; ++i) {
      e2e.add("setup_s", "s", setup_probe(ctx));
    }
    repeat_for(o.seconds, [&] {
      // Each campaign's own peak: trimmed heap and a fresh high-water mark.
      obs::reset_peak();
      const CampaignRun run = run_batch(ctx, gate, nullptr, 0);
      if (run.timed_s <= 0.0) return;
      e2e.add("peak_rss_mb", "MB", obs::peak_rss_mb());
      e2e.add("setup_s", "s", run.setup_s);
      e2e.add("trials_per_s", "trials/s",
              static_cast<double>(run.trials) / run.timed_s);
      // Detail only: how much simulation the seed asked for.
      e2e.add("rounds_per_s", "rounds/s",
              static_cast<double>(run.rounds) / run.timed_s);
      e2e.add("rounds", "count", static_cast<double>(run.rounds));
    });
    return;
  }
  // Traced pass: half the time untraced (the overhead baseline), half with
  // spans and telemetry.
  Metrics untraced, traced;
  repeat_for(o.seconds / 2, [&] {
    const CampaignRun run = run_batch(ctx, gate, nullptr, 0);
    if (run.timed_s > 0.0) {
      untraced.add("tps", "trials/s",
                   static_cast<double>(run.trials) / run.timed_s);
    }
  });
  repeat_for(o.seconds / 2, [&] {
    const CampaignRun run = run_batch(ctx, gate, spans, root);
    if (run.timed_s <= 0.0) return;
    traced.add("tps", "trials/s", static_cast<double>(run.trials) / run.timed_s);
    layer_metrics(ctx, run, layers);
  });
  add_tracing_overhead(layers, untraced, traced);
}

void run_serve_workload(const Options& o, const Workload& w, Gate& gate,
                        Metrics& e2e, Metrics& layers, SpanRecorder* spans,
                        std::uint64_t root) {
  BatchContext ctx;
  prepare(ctx, o, w);
  const campaign::Scenario& scenario = ctx.base.front();
  const std::size_t trials = scenario.trials;
  const unsigned workers = nproc();

  // The batch run of the identical grid at the same parallelism: the
  // reference every serve export must match byte for byte.
  Metrics batch;
  const CampaignRun reference = run_batch(ctx, gate, nullptr, 0);
  batch.add("wall_s", "s", reference.setup_s + reference.timed_s);
  const std::string& batch_export = ctx.reference;
  const std::size_t batch_incomplete = ctx.ins.incomplete;

  std::size_t launches = 0;
  bool tampered = false;
  const auto launch = [&](SpanRecorder* rec) {
    const std::string dir = o.out_dir + "/l" + std::to_string(launches++);
    ServeLaunch l = launch_serve(o, scenario, dir, workers, rec, root);
    check_serve(o, l, batch_export, batch_incomplete, trials, tampered, gate);
    return l;
  };

  if (!o.trace) {
    repeat_for(o.seconds, [&] {
      const ServeLaunch l = launch(nullptr);
      if (l.exit_code != 0 || l.timed_s <= 0.0) return;
      e2e.add("setup_s", "s", l.setup_s);
      e2e.add("trials_per_s", "trials/s",
              static_cast<double>(trials) / l.timed_s);
      e2e.add("peak_rss_mb", "MB", l.rss_mb);
    });
    return;
  }

  // Traced pass. Batch side: the round-loop and executor layers of the
  // identical grid, with telemetry. Serve side: untraced launches (the
  // overhead baseline), then launches with spans and status polling.
  for (int i = 0; i < 2; ++i) {
    const CampaignRun run = run_batch(ctx, gate, nullptr, 0);
    batch.add("wall_s", "s", run.setup_s + run.timed_s);
  }
  const CampaignRun traced_batch = run_batch(ctx, gate, spans, root);
  layer_metrics(ctx, traced_batch, layers);

  Metrics untraced, traced;
  repeat_for(o.seconds / 2, [&] {
    const ServeLaunch l = launch(nullptr);
    if (l.exit_code != 0 || l.timed_s <= 0.0) return;
    untraced.add("tps", "trials/s", static_cast<double>(trials) / l.timed_s);
    untraced.add("wall_s", "s", l.wall_s);
  });
  repeat_for(o.seconds / 2, [&] {
    const ServeLaunch l = launch(spans);
    if (l.exit_code != 0 || l.timed_s <= 0.0) return;
    traced.add("tps", "trials/s", static_cast<double>(trials) / l.timed_s);
    layers.add("serve.finalize_s", "s", l.finalize_s);
    layers.add("serve.lease_expiries", "count",
               static_cast<double>(l.lease_expiries));
    layers.add("serve.speculative_dispatches", "count",
               static_cast<double>(l.speculative));
  });
  layers.add("serve.overhead_ratio", "ratio",
             ratio(untraced.value("wall_s"), batch.value("wall_s")));
  layers.add("serve.journal_append_ms_p50", "ms",
             journal_append_ms_p50(o.out_dir + "/append.journal", batch_export,
                                   spans, root));
  add_tracing_overhead(layers, untraced, traced);
}

// --- output ------------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"}, {"trials_per_s", "trials/s"}, {"peak_rss_mb", "MB"}};

const std::vector<MetricSpec> kPerLayer = {
    {"graph.build_s", "s"},
    {"graph.edges", "count"},
    {"graph.build_rss_mb", "MB"},
    {"algorithms.factory_s", "s"},
    {"core.poll_s", "s"},
    {"core.adversary_s", "s"},
    {"core.propagate_s", "s"},
    {"core.deliver_s", "s"},
    {"core.outside_phases_s", "s"},
    {"core.rounds", "count"},
    {"core.deliveries", "count"},
    {"core.replans", "count"},
    {"core.ns_per_delivery", "ns"},
    {"core.send_ratio", "ratio"},
    {"core.calendar_stale_ratio", "ratio"},
    {"adversary.reach_appends", "count"},
    {"mac.send_ratio", "ratio"},
    {"byz.forged_injections", "count"},
    {"campaign.busy_ratio", "ratio"},
    {"campaign.idle_s", "s"},
    {"campaign.trial_ms_p50", "ms"},
    {"campaign.trial_ms_p99", "ms"},
    {"campaign.trial_samples", "count"},
    {"campaign.export_s", "s"},
    {"campaign.export_bytes", "bytes"},
    {"campaign.contract_s", "s"},
    {"campaign.trials_incomplete", "count"},
    {"trace.compressed_bytes", "bytes"},
    {"audit.s", "s"},
    {"audit.rounds_per_s", "rounds/s"},
    {"serve.overhead_ratio", "ratio"},
    {"serve.finalize_s", "s"},
    {"serve.journal_append_ms_p50", "ms"},
    {"serve.lease_expiries", "count"},
    {"serve.speculative_dispatches", "count"},
    {"tracing.untraced_trials_per_s", "trials/s"},
    {"tracing.traced_trials_per_s", "trials/s"},
    {"tracing.overhead_ratio", "ratio"},
};

/// The detail line: every metric's samples as median and quartiles, the
/// gate's findings, and the run's shape. run.py adds the machine to it.
void print_detail(const Options& o, const Gate& gate, const Metrics& metrics,
                  const std::string& spans_path) {
  std::string out = "# detail {\"workload\":\"" + o.workload + "\"";
  out += ",\"seed\":" + std::to_string(o.seed);
  out += ",\"seconds\":" + num(o.seconds);
  out += ",\"trace\":" + std::string(o.trace ? "1" : "0");
  out += ",\"reduced\":" + std::string(o.reduced ? "true" : "false");
  out += ",\"nproc\":" + std::to_string(nproc());
  out += ",\"trials_incomplete\":" + std::to_string(gate.incomplete);
  out += ",\"export_fnv1a64\":\"" + gate.export_digest + "\"";
  out += ",\"spans\":\"" + spans_path + "\"";
  out += ",\"gate\":[";
  for (std::size_t i = 0; i < gate.reasons.size(); ++i) {
    std::string r = gate.reasons[i];
    std::replace(r.begin(), r.end(), '"', '\'');
    out += (i == 0 ? "\"" : ",\"") + r + "\"";
  }
  out += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, s] : metrics.all()) {
    out += (first ? "\"" : ",\"") + name + "\":{\"unit\":\"" + s.unit +
           "\",\"n\":" + std::to_string(s.samples.size()) +
           ",\"median\":" + num(median(s.samples)) +
           ",\"q1\":" + num(quantile(s.samples, 0.25)) +
           ",\"q3\":" + num(quantile(s.samples, 0.75)) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_result(const Gate& gate, const Metrics& metrics,
                  const std::vector<MetricSpec>& specs) {
  std::string out = "{\"correct\": " + std::string(gate.ok() ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(std::max<std::size_t>(gate.attempted, 1));
  out += ", \"failed\": " + std::to_string(gate.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    out += std::string(i == 0 ? "" : ", ") + "\"" + specs[i].name +
           "\": {\"value\": " + num(metrics.value(specs[i].name)) +
           ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> parsed = parse(argc, argv);
  if (!parsed.has_value()) {
    std::fprintf(stderr,
                 "usage: dualrad_bench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 --serve-bin=PATH --out=DIR --digests=PATH "
                 "[--reduced] [--tamper=row|serve]\n");
    return 2;
  }
  const Options& o = *parsed;
  const Workload* workload = nullptr;
  for (const Workload& w : workloads()) {
    if (o.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", o.workload.c_str());
    return 2;
  }
  ::signal(SIGPIPE, SIG_IGN);

  Gate gate;
  Metrics e2e, layers;
  std::optional<SpanRecorder> spans;
  if (o.trace) spans.emplace();
  SpanRecorder* rec = spans.has_value() ? &*spans : nullptr;
  std::string spans_path;
  try {
    std::filesystem::create_directories(o.out_dir);
    const ScopedSpan root(rec, "bench", "workload", 0, o.workload);
    if (workload->serve) {
      run_serve_workload(o, *workload, gate, e2e, layers, rec, root.id());
    } else {
      run_batch_workload(o, *workload, gate, e2e, layers, rec, root.id());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (rec != nullptr) {
    spans_path = o.out_dir + "/spans.json";
    rec->write_chrome_trace(spans_path);
  }
  // Layers a workload does not exercise report 0.
  for (const MetricSpec& m : kPerLayer) {
    if (!layers.has(m.name)) layers.add(m.name, m.unit, 0.0);
  }

  for (const std::string& r : gate.reasons) {
    std::fprintf(stderr, "[gate] FAIL: %s\n", r.c_str());
  }
  const Metrics& shown = o.trace ? layers : e2e;
  print_detail(o, gate, shown, spans_path);
  print_result(gate, shown, o.trace ? kPerLayer : kEndToEnd);
  return gate.ok() ? 0 : 1;
}
