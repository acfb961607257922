#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "algorithms/harmonic.hpp"
#include "campaign/builtin_scenarios.hpp"
#include "campaign/engine.hpp"
#include "graph/broadcastability.hpp"
#include "lowerbound/theorem11_network.hpp"
#include "stats/fit.hpp"

/// The paper's claims as seeded checks over the paper/* campaign family
/// (campaign/paper_scenarios.hpp): each test runs one table's scenarios
/// through run_campaign under master seed 1 — the numbers
/// `dualrad_campaign --filter=paper/<table>` prints — and asserts the
/// table's bound. Deterministic rows are pinned to their exact values.

namespace dualrad::campaign {
namespace {

struct Sweep {
  std::vector<Scenario> scenarios;
  CampaignResult result;

  [[nodiscard]] const ScenarioSummary& at(const std::string& name) const {
    const ScenarioSummary* summary = find_summary(result, name);
    if (summary == nullptr) {
      throw std::invalid_argument("no paper scenario " + name);
    }
    return *summary;
  }

  /// Completion round of a completed single-trial deterministic row.
  [[nodiscard]] Round rounds(const std::string& name) const {
    const ScenarioSummary& s = at(name);
    EXPECT_EQ(s.failures, 0u) << name;
    return static_cast<Round>(s.rounds.max);
  }
};

[[nodiscard]] Sweep run_paper(std::string_view filter,
                              CampaignConfig config = {}) {
  Sweep sweep;
  sweep.scenarios = builtin_registry().match(filter);
  EXPECT_FALSE(sweep.scenarios.empty()) << filter;
  sweep.result = run_campaign(sweep.scenarios, config);
  return sweep;
}

[[nodiscard]] double envelope(NodeId n) {
  return stats::shape_value("n^1.5 sqrt(log n)", static_cast<double>(n));
}

// Table 1, classical row: round robin on the bridge with G' = G is O(n).
TEST(PaperT1, ClassicalRoundRobinIsLinear) {
  const Sweep sweep = run_paper("paper/t1");
  for (const NodeId n : {17, 33, 65, 129, 257}) {
    EXPECT_EQ(sweep.rounds("paper/t1/round-robin/bridge-n=" +
                           std::to_string(n) + "/benign"),
              n + 1);
  }
}

// Table 2, classical row: Decay at constant diameter is polylogarithmic.
TEST(PaperT2, ClassicalDecayIsPolylog) {
  const Sweep sweep = run_paper("paper/t2/decay");
  for (const NodeId n : {17, 33, 65, 129, 257}) {
    const ScenarioSummary& s =
        sweep.at("paper/t2/decay/bridge-n=" + std::to_string(n) + "/benign");
    EXPECT_EQ(s.failures, 0u) << n;
    const double log_n = std::log2(static_cast<double>(n));
    EXPECT_LE(s.rounds.max, log_n * log_n) << n;
  }
}

// Figure F2 (Table 2's dual column): Theorem 18's 2nT H(n) completion bound
// and Lemma 15's nT H(n) bound on busy rounds — rounds whose total sending
// probability under the realized wake-up pattern reaches 1.
TEST(PaperF2, HarmonicWithinTheorem18AndLemma15) {
  std::map<std::string, Round> busy;
  CampaignConfig config;
  config.observer = [&busy](const Scenario& scenario, const TrialRow& row,
                            const SimResult& result) {
    ASSERT_TRUE(row.completed) << scenario.name;
    const auto n = static_cast<NodeId>(result.first_token.size());
    const Round T = harmonic_T(n);
    Round count = 0;
    for (Round round = 1; round <= result.completion_round; ++round) {
      double p = 0;
      for (const Round token_round : result.first_token) {
        p += harmonic_probability(round, token_round, T);
      }
      if (p >= 1.0) ++count;
    }
    busy[scenario.name] = std::max(busy[scenario.name], count);
  };
  const Sweep sweep = run_paper("paper/f2/", config);
  ASSERT_EQ(sweep.scenarios.size(), 5u);
  for (const Scenario& scenario : sweep.scenarios) {
    const NodeId n = scenario.network().node_count();
    const Round bound = harmonic_round_bound(n, harmonic_T(n));
    const ScenarioSummary& s = sweep.at(scenario.name);
    EXPECT_EQ(s.failures, 0u) << scenario.name;
    EXPECT_LE(s.rounds.max, static_cast<double>(bound)) << scenario.name;
    EXPECT_LE(busy.at(scenario.name), bound / 2) << scenario.name;
  }
}

// Figure F1: Strong Select completes under the benign, Bernoulli, full and
// greedy channels within O(n^1.5 sqrt(log n)), on both families.
TEST(PaperF1, StrongSelectCompletesWithinEnvelope) {
  const Sweep sweep = run_paper("paper/f1/");
  ASSERT_EQ(sweep.scenarios.size(), 32u);
  for (const Scenario& scenario : sweep.scenarios) {
    const ScenarioSummary& s = sweep.at(scenario.name);
    EXPECT_EQ(s.failures, 0u) << scenario.name;
    EXPECT_LE(s.rounds.max, envelope(scenario.network().node_count()))
        << scenario.name;
  }
  // Benign and greedy coincide on this family; full interference hands a
  // lone sender every node at once.
  const std::pair<NodeId, Round> layered[] = {
      {4, 32},
      {8, 196},
      {16, 908},
      {32, 2026},
      {64, 4501},
  };
  for (const auto& [layers, rounds] : layered) {
    const std::string prefix =
        "paper/f1/strong-select/layered-" + std::to_string(layers) + "x4/";
    EXPECT_EQ(sweep.rounds(prefix + "benign"), rounds);
    EXPECT_EQ(sweep.rounds(prefix + "greedy"), rounds);
    EXPECT_EQ(sweep.rounds(prefix + "full"), 1);
  }
  // Per n, the three gray-zone seeds.
  const std::pair<NodeId, std::array<Round, 3>> grayzone[] = {
      {32, {160, 223, 140}},
      {64, {337, 272, 209}},
      {128, {475, 435, 393}},
      {256, {780, 751, 451}},
  };
  for (const auto& [n, rounds] : grayzone) {
    for (std::size_t seed = 1; seed <= 3; ++seed) {
      EXPECT_EQ(sweep.rounds("paper/f1/strong-select/grayzone-n=" +
                             std::to_string(n) +
                             "-seed=" + std::to_string(seed) + "/greedy"),
                rounds[seed - 1]);
    }
  }
}

// Ablation A1: participating forever never sends less than participating
// once, and on the larger networks also finishes later.
TEST(PaperA1, ForeverSendsAtLeastOnce) {
  const Sweep sweep = run_paper("paper/a1");
  ASSERT_EQ(sweep.scenarios.size(), 12u);
  for (const NodeId layers : {8, 16, 32}) {
    for (const char* channel : {"greedy", "full"}) {
      const std::string net =
          "/layered-" + std::to_string(layers) + "x4/" + channel;
      const ScenarioSummary& once = sweep.at("paper/f1/strong-select" + net);
      const ScenarioSummary& forever =
          sweep.at("paper/a1/strong-select-forever" + net);
      EXPECT_GE(forever.mean_sends, once.mean_sends) << net;
      EXPECT_GE(forever.rounds.max, once.rounds.max) << net;
    }
  }
  // layers, {once sends, forever sends, forever rounds}
  const std::pair<NodeId, std::array<double, 3>> greedy[] = {
      {8, {22, 88, 196}},
      {16, {54, 432, 908}},
      {32, {691, 25910, 5615}},
  };
  for (const auto& [layers, expected] : greedy) {
    const std::string net =
        "/layered-" + std::to_string(layers) + "x4/greedy";
    EXPECT_EQ(sweep.at("paper/f1/strong-select" + net).mean_sends,
              expected[0]);
    EXPECT_EQ(sweep.at("paper/a1/strong-select-forever" + net).mean_sends,
              expected[1]);
    EXPECT_EQ(sweep.rounds("paper/a1/strong-select-forever" + net),
              static_cast<Round>(expected[2]));
  }
}

// Ablation A2: Strong Select completes with every SSF provider. The
// constructive Kautz-Singleton families give the shortest schedules, then
// the randomized ones, then round robin alone.
TEST(PaperA2, KautzSingletonBeatsRandomizedBeatsRoundRobin) {
  const Sweep sweep = run_paper("paper/a2/");
  const std::pair<NodeId, std::array<Round, 3>> expected[] = {
      {16, {1060, 2519, 2519}},
      {32, {2479, 7759, 11183}},
      {48, {3826, 14065, 25991}},
  };
  for (const auto& [layers, rounds] : expected) {
    const std::string net =
        "/layered-" + std::to_string(layers) + "x8/greedy";
    const Round ks =
        sweep.rounds("paper/a2/strong-select-ssf=kautz-singleton" + net);
    const Round randomized =
        sweep.rounds("paper/a2/strong-select-ssf=randomized" + net);
    const Round rr =
        sweep.rounds("paper/a2/strong-select-ssf=round-robin-only" + net);
    EXPECT_LE(ks, randomized) << net;
    EXPECT_LE(randomized, rr) << net;
    EXPECT_EQ(ks, rounds[0]) << net;
    EXPECT_EQ(randomized, rounds[1]) << net;
    EXPECT_EQ(rr, rounds[2]) << net;
  }
}

// Ablation A3: completion time is non-decreasing in the constant c of
// T = ceil(c ln(n/eps)), and no trial runs past 4x the 2nT H(n) bound.
TEST(PaperA3, HarmonicRoundsGrowWithC) {
  const Sweep sweep = run_paper("paper/a3/");
  double previous = 0;
  for (const int c : {1, 2, 4, 8, 12, 16}) {
    const ScenarioSummary& s = sweep.at(
        "paper/a3/hb-c=" + std::to_string(c) + "/layered-16x4/greedy");
    EXPECT_EQ(s.failures, 0u) << c;
    EXPECT_GE(s.rounds.mean, previous) << c;
    previous = s.rounds.mean;
  }
}

// Ablation A4: CMS with an underestimated Delta can fail outright, while
// the true Delta, its over- and under-estimates elsewhere, and Strong Select
// (no Delta at all) complete.
TEST(PaperA4, UnderestimatedDeltaCanFail) {
  const Sweep sweep = run_paper("paper/a4/");
  ASSERT_EQ(sweep.scenarios.size(), 10u);
  EXPECT_EQ(sweep.at("paper/a4/cms-delta=1/backbone-seed=3/greedy").failures,
            1u);
  const std::pair<std::string, Round> completed[] = {
      {"cms-delta=half/backbone-seed=3", 59},
      {"cms-delta=true/backbone-seed=3", 59},
      {"cms-delta=double/backbone-seed=3", 59},
      {"strong-select/backbone-seed=3", 412},
      {"cms-delta=1/backbone-seed=4", 35},
      {"cms-delta=half/backbone-seed=4", 55},
      {"cms-delta=true/backbone-seed=4", 55},
      {"cms-delta=double/backbone-seed=4", 55},
      {"strong-select/backbone-seed=4", 289},
  };
  for (const auto& [row, rounds] : completed) {
    EXPECT_EQ(sweep.rounds("paper/a4/" + row + "/greedy"), rounds) << row;
  }
}

// E6, the Theorem 11 family: deterministic broadcast completes above the
// sqrt(n)-layer depth and, for Strong Select, within O(n^1.5 sqrt(log n)).
TEST(PaperE6, Theorem11FamilyWithinEnvelope) {
  const Sweep sweep = run_paper("paper/e6/");
  // n, {Strong Select (benign = greedy), round robin under greedy}
  const std::pair<NodeId, std::array<Round, 2>> expected[] = {
      {16, {38, 21}},
      {36, {164, 55}},
      {64, {426, 105}},
      {100, {872, 171}},
      {196, {3468, 351}},
  };
  for (const auto& [n, rounds] : expected) {
    const std::string net = "/thm11-n=" + std::to_string(n) + "/";
    const Round depth = lowerbound::theorem11_layout(n).num_layers;
    for (const char* channel : {"benign", "greedy"}) {
      const Round ss = sweep.rounds("paper/e6/strong-select" + net + channel);
      EXPECT_EQ(ss, rounds[0]) << n << channel;
      EXPECT_GE(ss, depth) << n;
      EXPECT_LE(static_cast<double>(ss), envelope(n)) << n;
    }
    const Round rr = sweep.rounds("paper/e6/round-robin" + net + "greedy");
    EXPECT_EQ(rr, rounds[1]) << n;
    EXPECT_GE(rr, depth) << n;
  }
}

// Extension X1: against the greedy blocker, learning the topology and
// switching to a collision-free schedule beats rerunning Harmonic
// Broadcast. A row's rounds is the learned total, rounds_executed the
// naive total.
TEST(PaperX1, LearnedBeatsNaiveForHarmonicUnderGreedy) {
  const Sweep sweep = run_paper("paper/x1/");
  ASSERT_EQ(sweep.scenarios.size(), 8u);
  for (const TrialRow& row : sweep.result.trials) {
    EXPECT_TRUE(row.completed) << row.scenario;
    if (row.scenario.starts_with("paper/x1/hb/") &&
        row.scenario.ends_with("/greedy")) {
      EXPECT_LT(row.rounds, row.rounds_executed) << row.scenario;
    }
  }
}

// Extension X2: the greedy oracle's single-sender schedule is never longer
// than what an oblivious algorithm needs against the greedy blocker.
TEST(PaperX2, OracleScheduleBoundsObliviousColumns) {
  const Sweep sweep = run_paper("paper/x2");
  ASSERT_EQ(sweep.scenarios.size(), 10u);
  for (const Scenario& scenario : sweep.scenarios) {
    const ScenarioSummary& s = sweep.at(scenario.name);
    EXPECT_EQ(s.failures, 0u) << scenario.name;
    const Round oracle =
        broadcastability::greedy_oracle_schedule(scenario.network()).rounds();
    EXPECT_LE(static_cast<double>(oracle), s.rounds.min) << scenario.name;
  }
  const std::pair<std::string, Round> strong_select[] = {
      {"bridge-n=33", 35},
      {"bridge-n=65", 67},
      {"thm12-n=33", 525},
      {"grayzone-n=64", 365},
  };
  for (const auto& [net, rounds] : strong_select) {
    EXPECT_EQ(sweep.rounds("paper/x2/strong-select/" + net + "/greedy"),
              rounds);
  }
}

}  // namespace
}  // namespace dualrad::campaign
