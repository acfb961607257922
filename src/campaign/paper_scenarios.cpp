#include "campaign/paper_scenarios.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/cms_oblivious.hpp"
#include "campaign/builders.hpp"
#include "lowerbound/theorem11_network.hpp"
#include "repeated/repeated.hpp"
#include "selectors/randomized_ssf.hpp"
#include "selectors/round_robin_family.hpp"

namespace dualrad::campaign {

namespace {

using namespace builders;

/// One paper row under CR4 with asynchronous start, the paper's weakest
/// model, and the default round cap.
[[nodiscard]] Scenario row(std::string name, std::string description,
                           NetworkBuilder network, AlgorithmBuilder algorithm,
                           AdversaryFactory adversary, std::size_t trials,
                           std::vector<std::string> tags = {}) {
  return {.name = std::move(name),
          .description = std::move(description),
          .tags = std::move(tags),
          .network = std::move(network),
          .algorithm = std::move(algorithm),
          .adversary = std::move(adversary),
          .trials = trials};
}

[[nodiscard]] std::string layered_name(NodeId layers, NodeId width) {
  return "layered-" + std::to_string(layers) + "x" + std::to_string(width);
}

/// X1's trial body: ten broadcasts on one network against one adversary,
/// naive (rerun the algorithm) vs learned (four training broadcasts, then
/// a TDMA schedule on the estimated reliable graph). The row's `rounds` is
/// the learned total and `rounds_executed` the naive total.
[[nodiscard]] SimResult learn_then_schedule(const DualGraph& net,
                                            const ProcessFactory& factory,
                                            Adversary& adversary,
                                            const SimConfig& config) {
  const repeated::RepeatedReport report = repeated::run_repeated_broadcast(
      net, factory, adversary,
      {.broadcasts = 10, .training = 4, .min_samples = 5, .config = config});
  SimResult digest;
  digest.completed = report.all_completed;
  digest.completion_round = report.learned_total();
  digest.rounds_executed = report.naive_total();
  return digest;
}

}  // namespace

void register_paper_scenarios(ScenarioRegistry& registry) {
  // --- T1 / T2 classical columns: G' = G on the diameter-2 bridge, CR3,
  // synchronous start. Table 1's dual column is F1's greedy rows and
  // Table 2's is F2; both carry the table's tag.
  const auto add_classical = [&registry](Scenario s) {
    s.rule = CollisionRule::CR3;
    s.start = StartRule::Synchronous;
    s.max_rounds = 1'000'000;
    registry.add(std::move(s));
  };
  for (const NodeId n : {17, 33, 65, 129, 257}) {
    const std::string net = "/bridge-n=" + std::to_string(n) + "/benign";
    add_classical(row("paper/t1/round-robin" + net,
                      "Table 1, classical row: round robin, O(n)",
                      classical_bridge(n), round_robin(), benign(), 1));
    add_classical(row("paper/t2/decay" + net,
                      "Table 2, classical row: Decay, polylog rounds at "
                      "constant diameter",
                      classical_bridge(n), decay(), benign(), 5));
  }

  // --- F1: Strong Select on the layered complete-G' family under four
  // channels. F2: Harmonic Broadcast against the greedy blocker. A1 pits
  // participate-forever against F1's participate-once greedy and full rows.
  for (const NodeId layers : {4, 8, 16, 32, 64}) {
    const std::string net = layered_name(layers, 4);
    const bool a1 = layers >= 8 && layers <= 32;
    std::vector<std::string> once_tags;
    if (a1) once_tags.emplace_back("paper/a1");
    std::vector<std::string> greedy_tags = once_tags;
    greedy_tags.emplace_back("paper/t1");
    std::vector<std::string> hb_tags = {"paper/t2"};
    if (layers == 16) {
      greedy_tags.emplace_back("paper/x2");
      hb_tags.emplace_back("paper/x2");
    }
    const std::string f1 = "paper/f1/strong-select/" + net + "/";
    const std::string what =
        "Figure F1: Strong Select completes within O(n^1.5 sqrt(log n)) "
        "rounds under any adversary";
    registry.add(row(f1 + "benign", what, layered(layers, 4),
                     strong_select(), benign(), 1));
    registry.add(row(f1 + "bernoulli:0.5", what, layered(layers, 4),
                     strong_select(), bernoulli(0.5), 3));
    registry.add(row(f1 + "full", what, layered(layers, 4), strong_select(),
                     full_interference(), 1, once_tags));
    registry.add(row(f1 + "greedy", what, layered(layers, 4), strong_select(),
                     greedy(), 1, greedy_tags));
    if (a1) {
      StrongSelectOptions forever;
      forever.participate_forever = true;
      const std::string a1_name =
          "paper/a1/strong-select-forever/" + net + "/";
      const std::string a1_what =
          "Ablation A1: Strong Select participating in every SSF forever "
          "keeps old layers jamming new ones";
      registry.add(row(a1_name + "greedy", a1_what, layered(layers, 4),
                       strong_select(forever), greedy(), 1));
      registry.add(row(a1_name + "full", a1_what, layered(layers, 4),
                       strong_select(forever), full_interference(), 1));
    }
    registry.add(row("paper/f2/hb/" + net + "/greedy",
                     "Figure F2: Harmonic Broadcast completes within "
                     "2nT H(n) rounds (Theorem 18)",
                     layered(layers, 4), harmonic(), greedy(), 3, hb_tags));
  }
  for (const NodeId n : {32, 64, 128, 256}) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      registry.add(row(
          "paper/f1/strong-select/grayzone-n=" + std::to_string(n) +
              "-seed=" + std::to_string(seed) + "/greedy",
          "Figure F1, gray-zone family: Strong Select vs the greedy blocker",
          [n, seed] {
            return duals::gray_zone(
                {.n = n, .r_reliable = 0.25, .r_gray = 0.6, .seed = seed});
          },
          strong_select(), greedy(), 1));
    }
  }

  // --- A2: Strong Select's SSF provider. The families' sizes and validity
  // are checked in test_selectors; these rows measure the schedule cost.
  const std::pair<const char*, SsfProvider> providers[] = {
      {"kautz-singleton", StrongSelectOptions{}.provider},
      {"randomized", make_randomized_ssf_provider({.factor = 4.0, .seed = 2})},
      {"round-robin-only", round_robin_provider},
  };
  for (const NodeId layers : {16, 32, 48}) {
    for (const auto& [label, provider] : providers) {
      StrongSelectOptions options;
      options.provider = provider;
      registry.add(row(std::string("paper/a2/strong-select-ssf=") + label +
                           "/" + layered_name(layers, 8) + "/greedy",
                       "Ablation A2: Strong Select with a given SSF "
                       "construction",
                       layered(layers, 8), strong_select(options), greedy(),
                       1));
    }
  }

  // --- A3: the constant c in Harmonic Broadcast's T = ceil(c ln(n/eps)).
  // A trial past 4x the 2nT H(n) bound counts as a failure.
  const NodeId a3_n = 1 + 15 * 4;  // layered(16, 4): source + 15 layers of 4
  for (const int c : {1, 2, 4, 8, 12, 16}) {
    const HarmonicOptions options{.constant = static_cast<double>(c)};
    Scenario s = row("paper/a3/hb-c=" + std::to_string(c) +
                         "/layered-16x4/greedy",
                     "Ablation A3: Harmonic Broadcast's rounds grow with the "
                     "constant c in T",
                     layered(16, 4), harmonic(options), greedy(), 5);
    s.max_rounds = 4 * harmonic_round_bound(a3_n, harmonic_T(a3_n, options));
    registry.add(std::move(s));
  }

  // --- A4: the CMS oblivious baseline must know Delta, the in-degree of
  // G'; Strong Select needs no topology knowledge. Each CMS row guesses a
  // multiple of the true Delta. An underestimate can starve CMS forever,
  // so the rows stop at 100k rounds (the others finish within 500).
  const std::pair<const char*, NodeId (*)(NodeId)> guesses[] = {
      {"1", [](NodeId) -> NodeId { return 1; }},
      {"half", [](NodeId delta) -> NodeId { return delta / 2; }},
      {"true", [](NodeId delta) { return delta; }},
      {"double", [](NodeId delta) -> NodeId { return 2 * delta; }},
  };
  for (const std::uint64_t seed : {3, 4}) {
    const NetworkBuilder net = [seed] {
      return duals::backbone_plus_unreliable(
          {.n = 64, .p_reliable = 0.02, .p_unreliable = 0.05, .seed = seed});
    };
    const std::string suffix =
        "/backbone-seed=" + std::to_string(seed) + "/greedy";
    const std::string what =
        "Ablation A4: CMS needs Delta; Strong Select does not";
    std::vector<Scenario> rows;
    for (const auto& [label, guess] : guesses) {
      rows.push_back(row(std::string("paper/a4/cms-delta=") + label + suffix,
                         what, net,
                         [guess](const DualGraph& built) {
                           const auto delta = static_cast<NodeId>(
                               built.g_prime_csr().max_in_degree());
                           return make_cms_oblivious_factory(
                               built.node_count(),
                               {.delta = std::max<NodeId>(1, guess(delta))});
                         },
                         greedy(), 1));
    }
    rows.push_back(row("paper/a4/strong-select" + suffix, what, net,
                       strong_select(), greedy(), 1));
    for (Scenario& s : rows) {
      s.max_rounds = 100'000;
      registry.add(std::move(s));
    }
  }

  // --- E6: the directed sqrt(n)-broadcastable family behind the
  // Omega(n^1.5) bound of Theorem 11.
  for (const NodeId n : {16, 36, 64, 100, 196}) {
    const NetworkBuilder net = [n] { return lowerbound::theorem11_network(n); };
    const std::string suffix = "/thm11-n=" + std::to_string(n) + "/";
    const std::string what =
        "Theorem 11 family: directed dual graphs of depth sqrt(n)";
    registry.add(row("paper/e6/strong-select" + suffix + "benign", what, net,
                     strong_select(), benign(), 1));
    registry.add(row("paper/e6/strong-select" + suffix + "greedy", what, net,
                     strong_select(), greedy(), 1));
    registry.add(row("paper/e6/round-robin" + suffix + "greedy", what, net,
                     round_robin(), greedy(), 1));
  }

  // --- X2: the topology-oblivious algorithms against the greedy blocker,
  // next to the oracle schedule test_paper computes per network. The
  // layered-16x4 rows are F1's and F2's (tagged paper/x2).
  const std::pair<const char*, NetworkBuilder> x2_nets[] = {
      {"bridge-n=33", [] { return duals::bridge_network(33); }},
      {"bridge-n=65", [] { return duals::bridge_network(65); }},
      {"thm12-n=33", [] { return duals::theorem12_network(33); }},
      {"grayzone-n=64", [] { return duals::gray_zone({.n = 64, .seed = 3}); }},
  };
  for (const auto& [label, net] : x2_nets) {
    const std::string suffix = std::string("/") + label + "/greedy";
    const std::string what =
        "Extension X2: an oblivious algorithm vs the k-broadcastability "
        "oracle";
    registry.add(row("paper/x2/strong-select" + suffix, what, net,
                     strong_select(), greedy(), 1));
    registry.add(
        row("paper/x2/hb" + suffix, what, net, harmonic(), greedy(), 3));
  }

  // --- X1: repeated broadcast with topology learning (Section 8). The
  // Bernoulli channel does not reset between broadcasts, so link-quality
  // samples are not replays of one another.
  const AdversaryFactory noise = [](std::uint64_t seed) {
    return std::make_unique<BernoulliAdversary>(
        0.3, seed, /*reset_each_execution=*/false);
  };
  const std::pair<const char*, AdversaryFactory> x1_channels[] = {
      {"greedy", greedy()},
      {"bernoulli:0.3", noise},
  };
  const NetworkBuilder grayzone = [] {
    return duals::gray_zone(
        {.n = 48, .r_reliable = 0.25, .r_gray = 0.6, .seed = 7});
  };
  const NetworkBuilder backbone = [] {
    return duals::backbone_plus_unreliable(
        {.n = 48, .p_reliable = 0.06, .p_unreliable = 0.25, .seed = 7});
  };
  const std::pair<const char*, NetworkBuilder> x1_nets[] = {
      {"grayzone", grayzone},
      {"backbone", backbone},
  };
  const std::pair<const char*, AlgorithmBuilder> x1_algorithms[] = {
      {"hb", harmonic()},
      {"strong-select", strong_select()},
  };
  for (const auto& [channel, adversary] : x1_channels) {
    for (const auto& [net_label, net] : x1_nets) {
      for (const auto& [algorithm_label, algorithm] : x1_algorithms) {
        Scenario s = row(std::string("paper/x1/") + algorithm_label + "/" +
                             net_label + "/" + channel,
                         "Extension X1: ten broadcasts, naive vs learned "
                         "topology + TDMA schedule",
                         net, algorithm, adversary, 1);
        s.runner = learn_then_schedule;
        registry.add(std::move(s));
      }
    }
  }
}

}  // namespace dualrad::campaign
