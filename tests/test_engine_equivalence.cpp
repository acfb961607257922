#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "adversary/basic_adversaries.hpp"
#include "adversary/greedy_blocker.hpp"
#include "adversary/scripted_adversary.hpp"
#include "adversary/theorem2_adversary.hpp"
#include "algorithms/cms_oblivious.hpp"
#include "algorithms/decay.hpp"
#include "algorithms/harmonic.hpp"
#include "algorithms/round_robin_bcast.hpp"
#include "algorithms/scheduled.hpp"
#include "algorithms/strong_select.hpp"
#include "algorithms/uniform_gossip.hpp"
#include "byz/cpa.hpp"
#include "byz/plan.hpp"
#include "campaign/builtin_scenarios.hpp"
#include "campaign/engine.hpp"
#include "campaign/export.hpp"
#include "core/reference_engine.hpp"
#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "graph/dual_builders.hpp"
#include "graph/generators.hpp"
#include "mac/bmmb.hpp"
#include "obs/telemetry.hpp"
#include "test_util.hpp"

/// The sparse CSR engine (run_broadcast) must be *bit-identical* to the
/// dense reference engine (run_broadcast_reference) — same SimResult down to
/// trace vectors and process metrics — for every network, algorithm,
/// adversary, collision rule, start rule and token count. These tests sweep
/// randomized small executions across the full model surface, pin the
/// calendar's node-order polling against hints that scramble bucket order,
/// and then replay the entire builtin campaign grid through both engines
/// with the campaign's own trial seeds.

namespace dualrad {
namespace {

void expect_identical(const SimResult& a, const SimResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.completion_round, b.completion_round) << label;
  EXPECT_EQ(a.rounds_executed, b.rounds_executed) << label;
  EXPECT_EQ(a.first_token, b.first_token) << label;
  EXPECT_EQ(a.token_first, b.token_first) << label;
  EXPECT_EQ(a.process_of_node, b.process_of_node) << label;
  EXPECT_EQ(a.total_sends, b.total_sends) << label;
  EXPECT_EQ(a.total_collision_events, b.total_collision_events) << label;
  EXPECT_EQ(a.forged_tokens, b.forged_tokens) << label;
  EXPECT_EQ(a.trace.level, b.trace.level) << label;
  EXPECT_EQ(a.trace.blob, b.trace.blob) << label;
  EXPECT_EQ(a.trace.blob_offsets, b.trace.blob_offsets) << label;
  // Decoded round by round, so a divergence names its round.
  const auto n = static_cast<NodeId>(a.first_token.size());
  const std::vector<RoundRecord> rounds_a = testing::decode_all(a.trace, n);
  const std::vector<RoundRecord> rounds_b = testing::decode_all(b.trace, n);
  ASSERT_EQ(rounds_a.size(), rounds_b.size()) << label;
  for (std::size_t r = 0; r < rounds_a.size(); ++r) {
    const RoundRecord& ra = rounds_a[r];
    const RoundRecord& rb = rounds_b[r];
    EXPECT_EQ(ra.round, rb.round) << label;
    EXPECT_EQ(ra.receptions, rb.receptions) << label << " round " << ra.round;
    ASSERT_EQ(ra.senders.size(), rb.senders.size())
        << label << " round " << ra.round;
    for (std::size_t s = 0; s < ra.senders.size(); ++s) {
      EXPECT_EQ(ra.senders[s].node, rb.senders[s].node) << label;
      EXPECT_EQ(ra.senders[s].message, rb.senders[s].message) << label;
      EXPECT_EQ(ra.senders[s].reached, rb.senders[s].reached) << label;
    }
  }
  ASSERT_EQ(a.process_metrics.size(), b.process_metrics.size()) << label;
  for (std::size_t i = 0; i < a.process_metrics.size(); ++i) {
    EXPECT_EQ(a.process_metrics[i].node, b.process_metrics[i].node) << label;
    EXPECT_EQ(a.process_metrics[i].pid, b.process_metrics[i].pid) << label;
    EXPECT_EQ(a.process_metrics[i].name, b.process_metrics[i].name) << label;
    EXPECT_EQ(a.process_metrics[i].value, b.process_metrics[i].value) << label;
  }
}

/// Run one spec through the production engine and the reference engine —
/// each with its own fresh adversary — and require both SimResults
/// identical.
void run_both(const DualGraph& net, const ProcessFactory& factory,
              const campaign::AdversaryFactory& adversary,
              const SimConfig& config, const std::string& label) {
  const auto adv_a = adversary(mix_seed(config.seed, 0xAD));
  const SimResult fast = run_broadcast(net, factory, *adv_a, config);
  const auto adv_b = adversary(mix_seed(config.seed, 0xAD));
  const SimResult reference =
      run_broadcast_reference(net, factory, *adv_b, config);
  expect_identical(fast, reference, label);
}

using AlgorithmFactory = ProcessFactory (*)(const DualGraph&);

ProcessFactory decay_algo(const DualGraph& net) {
  return make_decay_factory(net.node_count());
}
ProcessFactory harmonic_algo(const DualGraph& net) {
  return make_harmonic_factory(net.node_count(), {.eps = 0.2});
}
ProcessFactory gossip_algo(const DualGraph& net) {
  return make_uniform_gossip_factory(net.node_count());
}
ProcessFactory round_robin_algo(const DualGraph& net) {
  return make_round_robin_factory(net.node_count());
}
ProcessFactory strong_select_algo(const DualGraph& net) {
  return make_strong_select_factory(net.node_count());
}
ProcessFactory scheduled_algo(const DualGraph& net) {
  // A non-trivial TDMA schedule: period n + 3, ids rotated by stride 3, so
  // some ids own several slots per period and (for n not coprime with 3)
  // others own none — exercising both multi-slot hints and kNever plans.
  const NodeId n = net.node_count();
  std::vector<ProcessId> slots(static_cast<std::size_t>(n) + 3);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i] = static_cast<ProcessId>((i * 3) % static_cast<std::size_t>(n));
  }
  return make_scheduled_factory(n, std::move(slots));
}
ProcessFactory cms_algo(const DualGraph& net) {
  return make_cms_oblivious_factory(
      net.node_count(),
      {.delta = static_cast<NodeId>(net.g_prime_csr().max_in_degree())});
}

TEST(EngineEquivalence, RandomSmallScenarios) {
  // Sweep: every collision rule x start rule, cycling through algorithms,
  // adversaries, and randomized small dual networks (n <= 64). Traced, so
  // divergence anywhere in delivery, reception, or accounting is caught.
  const std::vector<std::pair<const char*, AlgorithmFactory>> algorithms = {
      {"decay", decay_algo},
      {"harmonic", harmonic_algo},
      {"gossip", gossip_algo},
      {"round-robin", round_robin_algo},
      {"strong-select", strong_select_algo},
      {"scheduled", scheduled_algo},
      {"cms", cms_algo},
  };
  const std::vector<std::pair<const char*, campaign::AdversaryFactory>>
      adversaries = {
          {"benign", campaign::make_adversary_factory<BenignAdversary>()},
          {"full-interference",
           campaign::make_adversary_factory<FullInterferenceAdversary>(
               /*deliver_on_cr4=*/true)},
          {"bernoulli",
           campaign::make_seeded_adversary_factory<BernoulliAdversary>(0.5)},
          {"greedy", campaign::make_adversary_factory<GreedyBlockerAdversary>()},
      };
  const std::vector<std::pair<const char*, DualGraph>> networks = {
      {"layered", duals::layered_complete_gprime(5, 4)},
      {"grayzone", duals::gray_zone({.n = 40, .seed = 9})},
      {"backbone", duals::backbone_plus_unreliable({.n = 64, .seed = 4})},
      {"layered-sparse",
       duals::layered_sparse(
           {.layers = 8, .width = 6, .fwd_degree = 2, .unreliable_degree = 1,
            .seed = 5})},
      {"grayzone-grid",
       duals::gray_zone_grid({.n = 48, .mean_degree = 6.0, .seed = 11})},
      {"bridge", duals::bridge_network(12)},
  };

  std::size_t combo = 0;
  for (const CollisionRule rule : {CollisionRule::CR1, CollisionRule::CR2,
                                   CollisionRule::CR3, CollisionRule::CR4}) {
    for (const StartRule start :
         {StartRule::Synchronous, StartRule::Asynchronous}) {
      for (std::size_t i = 0; i < 4; ++i, ++combo) {
        const auto& [algo_name, algo] = algorithms[combo % algorithms.size()];
        const auto& [adv_name, adversary] =
            adversaries[(combo / 2) % adversaries.size()];
        const auto& [net_name, net] = networks[(combo / 3) % networks.size()];
        SimConfig config;
        config.rule = rule;
        config.start = start;
        config.max_rounds = 30'000;
        config.seed = mix_seed(1234, combo);
        config.trace = TraceLevel::Compressed;
        run_both(net, algo(net), adversary, config,
                 std::string(algo_name) + "/" + net_name + "/" + adv_name +
                     "/" + to_string(rule) + "/" + to_string(start));
      }
    }
  }
}

TEST(EngineEquivalence, MultiTokenExecutions) {
  // k in {1, 4} tokens via BMMB-over-DecayMac — the layered MAC processes
  // use neither scheduling hint, so this exercises the engine's
  // per-round-polling fallback path with multi-token bookkeeping.
  const DualGraph layered = duals::layered_complete_gprime(6, 4);
  const DualGraph grayzone = duals::gray_zone({.n = 32, .seed = 6});
  for (const DualGraph* net : {&layered, &grayzone}) {
    for (const TokenId k : {TokenId{1}, TokenId{4}}) {
      for (const StartRule start :
           {StartRule::Synchronous, StartRule::Asynchronous}) {
        SimConfig config;
        config.start = start;
        config.max_rounds = 200'000;
        config.seed = mix_seed(77, static_cast<std::uint64_t>(k));
        config.trace = TraceLevel::Compressed;
        config.token_sources = mac::spread_token_sources(*net, k);
        run_both(*net, mac::make_bmmb_factory(net->node_count()),
                 campaign::make_seeded_adversary_factory<BernoulliAdversary>(0.3),
                 config,
                 "bmmb/k=" + std::to_string(k) + "/" + to_string(start));
      }
    }
  }
}

TEST(EngineEquivalence, ProofRuleAndScriptedAdversaries) {
  // The remaining migrated implementations — the Theorem 2 fixed-rule
  // adversary (with its pinned proc mapping) and a scripted replay — must
  // round-trip both engines and the parallel kernel bit-identically too.
  {
    const NodeId n = 12;
    const DualGraph net = duals::bridge_network(n);
    // Owns the rule adversary and the pinned assignment in one object so a
    // campaign-style factory can mint fresh ones per engine run.
    class PinnedTheorem2 : public Theorem2Adversary {
     public:
      explicit PinnedTheorem2(NodeId n)
          : Theorem2Adversary(duals::bridge_layout(n)),
            map_(theorem2_assignment(n, 4)) {}
      std::vector<ProcessId> assign_processes(const DualGraph&) override {
        return map_;
      }

     private:
      std::vector<ProcessId> map_;
    };
    SimConfig config;
    config.rule = CollisionRule::CR1;
    config.start = StartRule::Synchronous;
    config.max_rounds = 5'000;
    config.seed = 31;
    config.trace = TraceLevel::Compressed;
    run_both(net, make_harmonic_factory(n, {.eps = 0.2}),
             [n](std::uint64_t) { return std::make_unique<PinnedTheorem2>(n); },
             config, "theorem2/bridge");
  }
  {
    const DualGraph net = duals::gray_zone({.n = 28, .seed = 15});
    // A random legal (G'-only) script, replayed identically per run.
    AdversaryScript script;
    script.reach.resize(64);
    StreamRng rng(0x5C12);
    for (auto& plan : script.reach) {
      for (NodeId u = 0; u < net.node_count(); ++u) {
        if (!rng.bernoulli(0.4)) continue;
        std::vector<NodeId> extras;
        for (const NodeId v : net.unreliable_out(u)) {
          if (rng.bernoulli(0.5)) extras.push_back(v);
        }
        if (!extras.empty()) plan[u] = std::move(extras);
      }
    }
    SimConfig config;
    config.rule = CollisionRule::CR3;
    config.start = StartRule::Asynchronous;
    config.max_rounds = 20'000;
    config.seed = 77;
    config.trace = TraceLevel::Compressed;
    run_both(net, make_decay_factory(net.node_count()),
             [&script](std::uint64_t) {
               return std::make_unique<ScriptedAdversary>(script);
             },
             config, "scripted/grayzone");
  }
}

TEST(EngineEquivalence, StopOnCompletionOffMatchesToo) {
  // Running past completion (termination experiments) must agree as well.
  const DualGraph net = duals::layered_complete_gprime(4, 3);
  SimConfig config;
  config.max_rounds = 2'000;
  config.stop_on_completion = false;
  config.seed = 5;
  config.trace = TraceLevel::Compressed;
  run_both(net, make_decay_factory(net.node_count()),
           campaign::make_adversary_factory<BenignAdversary>(), config,
           "decay/no-stop");
}

TEST(EngineEquivalence, BuiltinCampaignGridIsBitIdentical) {
  // Replay the builtin catalogue through both engines with the campaign's
  // own derived trial seeds (master seed 1, trial 0 — exactly what
  // run_campaign hands the simulator), proving the production engine swap does not shift a single
  // campaign number. The 100k/1m "slow" points are exercised by
  // bench_engine_scaling instead; everything else runs here.
  const campaign::ScenarioRegistry registry = campaign::builtin_registry();
  std::size_t checked = 0;
  for (const campaign::Scenario& s : registry.all()) {
    bool slow = false;
    for (const std::string& tag : s.tags) slow = slow || tag == "slow";
    if (slow) continue;
    // Scenarios with a custom trial runner (the byz/* family wraps the run
    // in a ByzantinePlan) are replayed by ByzantineExecutionsAreBitIdentical
    // and ByzCampaignExportsAreThreadInvariant instead.
    if (s.runner) continue;
    const DualGraph net = s.network();
    const ProcessFactory factory = s.algorithm(net);
    SimConfig config;
    config.rule = s.rule;
    config.start = s.start;
    config.max_rounds = s.max_rounds;
    config.seed = campaign::trial_seed(1, s.name, 0);
    config.token_sources = s.token_sources;
    const auto adv_a = s.adversary(mix_seed(config.seed, 0xAD));
    const auto adv_b = s.adversary(mix_seed(config.seed, 0xAD));
    const SimResult fast = run_broadcast(net, factory, *adv_a, config);
    const SimResult reference =
        run_broadcast_reference(net, factory, *adv_b, config);
    expect_identical(fast, reference, s.name);
    ++checked;
  }
  EXPECT_GE(checked, 20u);
}

TEST(EngineEquivalence, ByzantineExecutionsAreBitIdentical) {
  // Byzantine node faults (src/byz/) run through the same hot paths —
  // silenced protocol sends, injected forged sends, forged-delivery masks —
  // and every byproduct including SimResult::forged_tokens must stay
  // bit-identical across both engines.
  const DualGraph layered = duals::layered_sparse(
      {.layers = 8, .width = 6, .fwd_degree = 3, .unreliable_degree = 2,
       .seed = 5});
  const DualGraph grayzone = duals::gray_zone({.n = 40, .seed = 9});
  const auto adversary =
      campaign::make_seeded_adversary_factory<BernoulliAdversary>(0.4);
  for (const DualGraph* net : {&layered, &grayzone}) {
    const auto src = static_cast<ProcessId>(net->source());
    const ProcessFactory cpa = byz::make_cpa_factory(
        net->node_count(), {.f = 1,
                            .trusted_origins = {src},
                            .relay_p = 0.5,
                            .active_rounds = 64,
                            .rebroadcast_period = 16});
    const ProcessFactory relay = byz::make_uncertified_relay_factory(
        net->node_count(),
        {.relay_p = 0.5, .active_rounds = 64, .rebroadcast_period = 16});
    for (const byz::ByzBehavior behavior :
         {byz::ByzBehavior::Silent, byz::ByzBehavior::Forge}) {
      const byz::ByzantinePlan plan = byz::make_random_plan(
          *net, /*f=*/1, /*count=*/5, behavior, {}, 0xBEEF);
      ASSERT_GE(plan.faults().size(), 1u);
      SimConfig config;
      config.rule = CollisionRule::CR3;
      config.start = StartRule::Asynchronous;
      config.max_rounds = 20'000;
      config.seed = mix_seed(4711, static_cast<std::uint64_t>(behavior));
      config.trace = TraceLevel::Compressed;
      config.byzantine = &plan;
      const std::string tag = (net == &layered ? "layered" : "grayzone");
      const std::string mode =
          behavior == byz::ByzBehavior::Silent ? "silent" : "forge";
      run_both(*net, cpa, adversary, config, "byz/" + tag + "/cpa/" + mode);
      run_both(*net, relay, adversary, config,
               "byz/" + tag + "/relay/" + mode);
    }
  }
}

TEST(EngineEquivalence, ByzCampaignExportsAreThreadInvariant) {
  // The byz/* scenario family must export byte-identical JSONL/CSV for any
  // campaign worker count — the acceptance pin for the node-fault
  // subsystem riding the campaign engine's determinism contract.
  const campaign::ScenarioRegistry registry = campaign::builtin_registry();
  const std::vector<campaign::Scenario> scenarios =
      registry.match("byz/layered-1k");
  ASSERT_GE(scenarios.size(), 4u);
  std::string base_jsonl, base_csv;
  for (const unsigned threads : {1u, 2u, 4u}) {
    campaign::CampaignConfig config;
    config.master_seed = 7;
    config.threads = threads;
    config.trials_override = 1;
    const campaign::CampaignResult result =
        campaign::run_campaign(scenarios, config);
    const std::string jsonl = campaign::trials_to_jsonl(result.trials, false);
    const std::string csv = campaign::trials_to_csv(result.trials, false);
    ASSERT_FALSE(jsonl.empty());
    if (threads == 1u) {
      base_jsonl = jsonl;
      base_csv = csv;
    } else {
      EXPECT_EQ(jsonl, base_jsonl) << "threads=" << threads;
      EXPECT_EQ(csv, base_csv) << "threads=" << threads;
    }
  }
}

TEST(EngineEquivalence, TelemetryDoesNotPerturbResults) {
  // The telemetry layer is strictly out-of-band: attaching an
  // obs::RoundTelemetry must leave the SimResult bit-identical — both
  // engines, with a trace so any perturbation anywhere in delivery or
  // accounting would surface.
  const DualGraph net = duals::gray_zone({.n = 40, .seed = 9});
  const ProcessFactory factory = make_decay_factory(net.node_count());
  const auto adversary =
      campaign::make_seeded_adversary_factory<BernoulliAdversary>(0.5);
  for (const CollisionRule rule : {CollisionRule::CR2, CollisionRule::CR4}) {
    SimConfig config;
    config.rule = rule;
    config.start = StartRule::Asynchronous;
    config.max_rounds = 30'000;
    config.seed = 4242;
    config.trace = TraceLevel::Compressed;
    const auto adv_off = adversary(mix_seed(config.seed, 0xAD));
    const SimResult off = run_broadcast(net, factory, *adv_off, config);

    obs::RoundTelemetry telemetry(8);
    config.telemetry = &telemetry;
    const auto adv_on = adversary(mix_seed(config.seed, 0xAD));
    const SimResult on = run_broadcast(net, factory, *adv_on, config);
    const std::string label = "telemetry/" + std::string(to_string(rule));
    expect_identical(on, off, label);
    EXPECT_EQ(telemetry.rounds_recorded(), off.rounds_executed) << label;

    const auto adv_ref = adversary(mix_seed(config.seed, 0xAD));
    obs::RoundTelemetry ref_telemetry(8);
    SimConfig ref_config = config;
    ref_config.telemetry = &ref_telemetry;
    const SimResult ref =
        run_broadcast_reference(net, factory, *adv_ref, ref_config);
    expect_identical(ref, off, label + "/reference");
  }
}

/// A relay whose send rounds are a pseudo-random function of (id, round,
/// receptions counted), announced by an exact next_send_round hint 1-11
/// rounds ahead. Every counted reception reshuffles the schedule, so the
/// engine's calendar buckets fill from many planning rounds — poll replans
/// in node order, reception replans in arrival order — and pop in no node
/// order. Nodes without a token transmit noise (kNoToken), which keeps
/// collisions frequent. The hearing() hint depends on id and state, so
/// every delivery path of the engine is reached:
///   id % 4 == 0  NonSilence throughout;
///   id % 4 == 1  All (silence counts too) until saturated, then None;
///   id % 4 == 2  NonSilence until saturated, then None;
///   id % 4 == 3  NonSilence until it first hears something, then All.
/// Saturated processes (kCap receptions counted) ignore everything, tokens
/// included. `polls` (shared by every process of one run) logs each
/// next_action call as (round, pid).
class ScrambledHintProcess final : public Process {
 public:
  using PollLog = std::vector<std::pair<Round, ProcessId>>;

  ScrambledHintProcess(ProcessId id, std::uint64_t seed,
                       std::shared_ptr<PollLog> polls)
      : Process(id), rng_(seed), polls_(std::move(polls)) {}

  void on_activate(Round round,
                   const std::optional<Message>& initial) override {
    (void)round;
    if (initial.has_value()) token_ = initial->token;
  }
  [[nodiscard]] Action next_action(Round round) const override {
    polls_->emplace_back(round, id());
    if (!sends_at(round)) return Action::silent();
    return Action::transmit(Message{token_, id(), round, heard_});
  }
  void on_receive(Round round, const Reception& reception) override {
    (void)round;
    const Hearing hint = hearing();
    if (hint == Hearing::None) return;
    if (reception.is_silence() && hint != Hearing::All) return;
    ++heard_;
    if (reception.is_message() && token_ == kNoToken) {
      token_ = reception.message->token;
    }
  }
  [[nodiscard]] Round next_send_round(Round from) const override {
    Round r = from;
    while (!sends_at(r)) ++r;
    return r;
  }
  [[nodiscard]] Hearing hearing() const override {
    const bool saturated = heard_ >= kCap;
    switch (id() % 4) {
      case 0:
        return Hearing::NonSilence;
      case 1:
        return saturated ? Hearing::None : Hearing::All;
      case 2:
        return saturated ? Hearing::None : Hearing::NonSilence;
      default:
        return heard_ == 0 ? Hearing::NonSilence : Hearing::All;
    }
  }
  [[nodiscard]] std::unique_ptr<Process> clone() const override {
    return std::make_unique<ScrambledHintProcess>(*this);
  }

 private:
  static constexpr std::uint64_t kCap = 6;

  [[nodiscard]] bool sends_at(Round r) const {
    return rng_.below(6, r, heard_) == 0;
  }

  CounterRng rng_;
  std::shared_ptr<PollLog> polls_;
  TokenId token_ = kNoToken;
  std::uint64_t heard_ = 0;
};

/// Forwards to a Bernoulli adversary (whose RNG stream makes call order
/// observable) and requires the sender list of every round, and the
/// collided nodes handed to resolve_cr4 within a round, to be strictly
/// ascending.
class OrderCheckingAdversary final : public Adversary {
 public:
  explicit OrderCheckingAdversary(std::uint64_t seed) : inner_(0.5, seed) {}

  void choose_unreliable_reach(const AdversaryView& view,
                               std::span<const NodeId> senders,
                               ReachSink& sink) override {
    EXPECT_TRUE(std::adjacent_find(senders.begin(), senders.end(),
                                   std::greater_equal<>()) == senders.end())
        << "senders not strictly ascending in round " << view.round;
    rounds_with_senders += senders.empty() ? 0 : 1;
    last_resolved_ = -1;
    inner_.choose_unreliable_reach(view, senders, sink);
  }
  [[nodiscard]] Reception resolve_cr4(
      const AdversaryView& view, NodeId node,
      const std::vector<Message>& arrivals) override {
    EXPECT_GT(node, last_resolved_) << "CR4 resolution out of node order";
    last_resolved_ = node;
    ++resolutions;
    return inner_.resolve_cr4(view, node, arrivals);
  }
  void on_execution_start(const DualGraph& net) override {
    inner_.on_execution_start(net);
  }
  void on_round_end(const AdversaryView& view) override {
    inner_.on_round_end(view);
  }

  std::size_t rounds_with_senders = 0;
  std::size_t resolutions = 0;

 private:
  BernoulliAdversary inner_;
  NodeId last_resolved_ = -1;
};

/// Runs ScrambledHintProcess on both engines under `config` and checks
/// that each round's polls come in strictly ascending node order (identity
/// process mapping: pid == node) and that the results are bit-identical.
/// Returns the most polls any round made on the sparse engine.
std::size_t expect_scrambled_identical(const DualGraph& net,
                                       const SimConfig& config,
                                       const std::string& label) {
  SimResult results[2];
  std::size_t max_round_polls = 0;
  for (const bool reference : {false, true}) {
    auto polls = std::make_shared<ScrambledHintProcess::PollLog>();
    const ProcessFactory factory = [polls](ProcessId id, NodeId n,
                                           std::uint64_t seed) {
      (void)n;
      return std::make_unique<ScrambledHintProcess>(id, seed, polls);
    };
    OrderCheckingAdversary adversary(config.seed);
    results[reference ? 1 : 0] =
        reference ? run_broadcast_reference(net, factory, adversary, config)
                  : run_broadcast(net, factory, adversary, config);
    EXPECT_GT(adversary.rounds_with_senders, 0u) << label;
    if (config.rule == CollisionRule::CR4) {
      EXPECT_GT(adversary.resolutions, 0u) << label;
    }
    std::size_t run = 1;
    for (std::size_t i = 1; i < polls->size(); ++i) {
      if ((*polls)[i].first != (*polls)[i - 1].first) {
        run = 1;
        continue;
      }
      EXPECT_LT((*polls)[i - 1].second, (*polls)[i].second)
          << label << (reference ? "/reference" : "") << " round "
          << (*polls)[i].first;
      if (!reference) max_round_polls = std::max(max_round_polls, ++run);
    }
  }
  EXPECT_GT(results[0].total_collision_events, 0u) << label;
  expect_identical(results[0], results[1], label);
  if (config.byzantine != nullptr) {
    EXPECT_FALSE(results[0].forged_tokens.empty()) << label;
  }
  return max_round_polls;
}

TEST(EngineEquivalence, ScrambledCalendarOrderPollsInNodeOrder) {
  // The sparse engine sorts each round's calendar pops before polling, so
  // process calls, senders and everything downstream run in node order no
  // matter how hints and reception replans scrambled the buckets, and it
  // delivers each node only the receptions its hearing() hint admits —
  // including hints that move between All, NonSilence and None. Pinned
  // against the reference engine under CR1-CR4 with collisions, and under a
  // forging Byzantine plan whose rewrite_senders removes every forger's
  // protocol sends and adds its forged injections.
  const DualGraph layered = duals::layered_sparse(
      {.layers = 8, .width = 6, .fwd_degree = 3, .unreliable_degree = 2,
       .seed = 5});
  const DualGraph grayzone = duals::gray_zone({.n = 40, .seed = 9});
  for (const DualGraph* net : {&layered, &grayzone}) {
    const std::string tag = net == &layered ? "layered" : "grayzone";
    const byz::ByzantinePlan plan = byz::make_random_plan(
        *net, /*f=*/1, /*count=*/4, byz::ByzBehavior::Forge, {}, 0xF00D);
    ASSERT_GE(plan.faults().size(), 1u);
    for (const CollisionRule rule : {CollisionRule::CR1, CollisionRule::CR2,
                                     CollisionRule::CR3, CollisionRule::CR4}) {
      for (const bool byzantine : {false, true}) {
        for (const StartRule start :
             {StartRule::Synchronous, StartRule::Asynchronous}) {
          SimConfig config;
          config.rule = rule;
          config.start = start;
          config.max_rounds = 400;
          config.seed = mix_seed(77, static_cast<std::uint64_t>(start));
          config.trace = TraceLevel::Compressed;
          if (byzantine) config.byzantine = &plan;
          expect_scrambled_identical(
              *net, config,
              "scrambled/" + tag + "/" + std::string(to_string(rule)) +
                  (byzantine ? "/forge" : "") +
                  (start == StartRule::Synchronous ? "/sync" : "/async"));
        }
      }
    }
  }
}

TEST(EngineEquivalence, ScrambledCalendarAboveRadixThreshold) {
  // Synchronous start on 4096 nodes pops several hundred nodes a round:
  // far past the sparse engine's std::sort cut-over, so the radix sort of
  // the pops over both digits of the node ids is what orders them.
  const DualGraph wide = duals::layered_sparse(
      {.layers = 8, .width = 512, .fwd_degree = 3, .unreliable_degree = 2,
       .seed = 11});
  for (const CollisionRule rule : {CollisionRule::CR2, CollisionRule::CR4}) {
    SimConfig config;
    config.rule = rule;
    config.start = StartRule::Synchronous;
    config.max_rounds = 40;
    config.seed = 0x5EED;
    config.trace = TraceLevel::Compressed;
    const std::size_t max_round_polls = expect_scrambled_identical(
        wide, config, "wide/" + std::string(to_string(rule)));
    EXPECT_GE(max_round_polls, 512u) << to_string(rule);
  }
}

}  // namespace
}  // namespace dualrad
