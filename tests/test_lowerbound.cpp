#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "adversary/scripted_adversary.hpp"
#include "algorithms/decay.hpp"
#include "algorithms/harmonic.hpp"
#include "algorithms/round_robin_bcast.hpp"
#include "algorithms/strong_select.hpp"
#include "algorithms/uniform_gossip.hpp"
#include "core/simulator.hpp"
#include "graph/algorithms.hpp"
#include "graph/dual_builders.hpp"
#include "lowerbound/theorem11_network.hpp"
#include "lowerbound/theorem12.hpp"
#include "lowerbound/theorem2.hpp"
#include "lowerbound/theorem4.hpp"
#include "stats/fit.hpp"

namespace dualrad {
namespace {

using lowerbound::run_theorem12;
using lowerbound::run_theorem2;
using lowerbound::run_theorem4;
using lowerbound::theorem12_bound;

/// Index of the best-fitting growth shape in stats::candidate_shapes(),
/// which lists the shapes from slowest ("n") to fastest ("n^2").
std::size_t best_shape_rank(const std::vector<double>& n,
                            const std::vector<double>& rounds) {
  const std::string best = stats::fit_all_shapes(n, rounds).front().shape;
  const std::vector<std::string> shapes = stats::candidate_shapes();
  return static_cast<std::size_t>(
      std::find(shapes.begin(), shapes.end(), best) - shapes.begin());
}

// ---------------------------------------------------------------- Theorem 2

TEST(Theorem2, RoundRobinNeedsLinearRounds) {
  const NodeId n = 16;
  const auto result = run_theorem2(n, make_round_robin_factory(n), 10'000);
  EXPECT_TRUE(result.bound_respected);
  // Round robin completes every alpha_i eventually.
  for (Round r : result.rounds_by_bridge_id) EXPECT_NE(r, kNever);
  EXPECT_GE(result.worst_rounds, n - 2);
}

TEST(Theorem2, StrongSelectRespectsBound) {
  // The Theorem 2 column of the oracle-gap table (X2) and beyond.
  const std::pair<NodeId, Round> expected[] = {
      {9, 17},
      {17, 33},
      {33, 65},
      {65, 129},
      {129, 192},
  };
  for (const auto& [n, worst] : expected) {
    const auto result =
        run_theorem2(n, make_strong_select_factory(n), 1'000'000);
    EXPECT_TRUE(result.bound_respected) << n;
    EXPECT_GE(result.worst_rounds, n - 2) << n;
    EXPECT_EQ(result.worst_rounds, worst) << n;
  }
}

TEST(Theorem2, BoundGrowsLinearly) {
  // Table 1's Theorem 2 column: round robin's worst case is 2(n-1), linear
  // in n by the shape fit.
  std::vector<double> ns, worst;
  for (NodeId n : {9, 17, 33, 65, 129, 257}) {
    const auto result = run_theorem2(n, make_round_robin_factory(n), 100'000);
    EXPECT_TRUE(result.bound_respected) << n;
    EXPECT_EQ(result.theorem_bound, n - 2);
    EXPECT_GE(result.worst_rounds, n - 2) << n;
    EXPECT_EQ(result.worst_rounds, 2 * (n - 1)) << n;
    EXPECT_EQ(result.worst_bridge_id, n - 2) << n;
    ns.push_back(static_cast<double>(n));
    worst.push_back(static_cast<double>(result.worst_rounds));
  }
  EXPECT_EQ(best_shape_rank(ns, worst), 0u);  // "n"
}

TEST(Theorem2, WorstBridgeIdIsReported) {
  const NodeId n = 12;
  const auto result = run_theorem2(n, make_round_robin_factory(n), 10'000);
  ASSERT_GE(result.worst_bridge_id, 1);
  ASSERT_LE(result.worst_bridge_id, n - 2);
  const Round worst = result.rounds_by_bridge_id[static_cast<std::size_t>(
      result.worst_bridge_id - 1)];
  for (Round r : result.rounds_by_bridge_id) EXPECT_LE(r, worst);
}

// ---------------------------------------------------------------- Theorem 4

TEST(Theorem4, SuccessBoundedByKOverN2) {
  // Every k in 1..n-3 on the 34-node bridge, for three randomized
  // algorithms. Harmonic's first T rounds are all-send, which the fixed-rule
  // adversary jams completely (min P = 0: legal, but degenerate); uniform
  // gossip traces the informative ~k/(e n) curve under the ceiling.
  const NodeId n = 34;
  std::vector<Round> ks;
  for (Round k = 1; k <= n - 3; k += 4) ks.push_back(k);
  ks.push_back(n - 3);
  const std::pair<ProcessFactory, std::uint64_t> algorithms[] = {
      {make_harmonic_factory(n), 11},
      {make_decay_factory(n), 13},
      {make_uniform_gossip_factory(n), 17},
  };
  for (const auto& [factory, seed] : algorithms) {
    const auto result = run_theorem4(n, factory, ks, /*trials=*/150, seed);
    EXPECT_TRUE(result.bound_respected) << seed;
    ASSERT_EQ(result.points.size(), ks.size());
    for (const auto& point : result.points) {
      EXPECT_LE(point.min_success_prob, point.bound)
          << "k=" << point.k << " seed=" << seed;
    }
  }
  // Table 2's Theorem 4 column: Harmonic at the largest k the theorem
  // covers, k = n-3.
  for (const NodeId m : {17, 33, 65}) {
    const auto result = run_theorem4(m, make_harmonic_factory(m), {m - 3},
                                     /*trials=*/40, /*seed=*/7);
    EXPECT_TRUE(result.bound_respected) << m;
    EXPECT_LE(result.points.front().min_success_prob,
              result.points.front().bound)
        << m;
  }
}

TEST(Theorem4, BoundIncreasesWithK) {
  const NodeId n = 14;
  const std::vector<Round> ks = {2, 6, 10};
  const auto result =
      run_theorem4(n, make_harmonic_factory(n), ks, /*trials=*/40, /*seed=*/5);
  for (std::size_t i = 1; i < result.points.size(); ++i) {
    EXPECT_GE(result.points[i].bound, result.points[i - 1].bound);
  }
}

// --------------------------------------------------------------- Theorem 11

TEST(Theorem11, NetworkIsSqrtNBroadcastable) {
  const NodeId n = 100;
  const DualGraph net = lowerbound::theorem11_network(n);
  EXPECT_GE(net.node_count(), n - 1);
  const Round ecc = graphalg::eccentricity(net.g(), net.source());
  const auto layout = lowerbound::theorem11_layout(n);
  EXPECT_EQ(ecc, layout.num_layers);
  EXPECT_FALSE(net.g().is_undirected());
}

TEST(Theorem11, GPrimeHasForwardSkipLinks) {
  const DualGraph net = lowerbound::theorem11_network(30);
  // Source has unreliable links past the first layer.
  EXPECT_GT(net.unreliable_out(net.source()).size(), 0u);
}

// --------------------------------------------------------------- Theorem 12

TEST(Theorem12, BoundFormula) {
  EXPECT_EQ(theorem12_bound(17), 4 * (4 - 2));    // n-1=16: 4 stages, log=4
  EXPECT_EQ(theorem12_bound(33), 8 * (5 - 2));    // n-1=32
  EXPECT_EQ(theorem12_bound(65), 16 * (6 - 2));   // n-1=64
}

TEST(Theorem12, RoundRobinForcedPastBound) {
  const NodeId n = 17;
  const auto result = run_theorem12(n, make_round_robin_factory(n));
  ASSERT_TRUE(result.valid);
  EXPECT_FALSE(result.stalled);
  EXPECT_EQ(result.stages_completed, result.stages_target);
  EXPECT_GE(result.total_rounds, result.guaranteed_bound);
  EXPECT_EQ(result.covered_processes, 2 * result.stages_target + 1);
  EXPECT_LT(result.covered_processes, n);
}

TEST(Theorem12, RoundRobinScalesAsNLogN) {
  // At least (n-1)/4 (log2(n-1) - 2) rounds with at most half the processes
  // covered, and a growth shape no slower than n log n.
  const std::pair<NodeId, Round> expected[] = {
      {9, 12},
      {17, 41},
      {33, 145},
      {65, 486},
      {129, 1867},
      {257, 7319},
  };
  std::vector<double> ns, rounds;
  Round prev = 0;
  for (const auto& [n, total] : expected) {
    const auto result = run_theorem12(n, make_round_robin_factory(n));
    ASSERT_TRUE(result.valid) << n;
    ASSERT_FALSE(result.stalled) << n;
    EXPECT_GE(result.total_rounds, theorem12_bound(n));
    EXPECT_EQ(result.total_rounds, total) << n;
    EXPECT_EQ(result.covered_processes, (n - 1) / 2 + 1) << n;
    EXPECT_GT(result.total_rounds, prev);
    prev = result.total_rounds;
    ns.push_back(static_cast<double>(n));
    rounds.push_back(static_cast<double>(result.total_rounds));
  }
  EXPECT_GE(best_shape_rank(ns, rounds), 1u);  // "n log n" or faster
}

TEST(Theorem12, StrongSelectForcedPastBoundOrStalled) {
  // Participating once (Section 5) and forever (ablation A1) are both
  // forced past the bound; forever is forced further on the larger n.
  StrongSelectOptions forever;
  forever.participate_forever = true;
  const std::pair<NodeId, std::array<Round, 2>> expected[] = {
      {9, {21, 21}},
      {17, {75, 75}},
      {33, {279, 279}},
      {65, {1071, 1071}},
      {129, {2109, 5707}},
      {257, {4581, 23707}},
  };
  for (const auto& [n, totals] : expected) {
    const StrongSelectOptions variants[] = {{}, forever};
    for (std::size_t i = 0; i < 2; ++i) {
      const auto result =
          run_theorem12(n, make_strong_select_factory(n, variants[i]));
      ASSERT_TRUE(result.valid) << n;
      // A stalled run is even stronger: the algorithm never isolates the
      // frontier again, so the broadcast never completes at all.
      EXPECT_LT(result.covered_processes, n);
      if (result.stalled) continue;
      EXPECT_GE(result.total_rounds, result.guaranteed_bound) << n;
      EXPECT_EQ(result.total_rounds, totals[i]) << n << " variant " << i;
    }
  }
}

TEST(Theorem12, StageLengthsAtLeastLogMinusTwo) {
  const NodeId n = 33;  // log2(32) = 5, so each stage >= 3 rounds + round 0
  const auto result = run_theorem12(n, make_round_robin_factory(n));
  ASSERT_TRUE(result.valid);
  // stage_lengths[0] is alpha_0; stages follow.
  for (std::size_t s = 1; s < result.stage_lengths.size(); ++s) {
    EXPECT_GE(result.stage_lengths[s], 5 - 2) << "stage " << s;
  }
}

TEST(Theorem12, ReplayScriptIsALegalExecution) {
  const NodeId n = 17;
  lowerbound::Theorem12Options options;
  options.build_script = true;
  const auto result = run_theorem12(n, make_round_robin_factory(n), options);
  ASSERT_TRUE(result.valid);
  ASSERT_FALSE(result.script.process_of_node.empty());

  // Replay inside the real simulator with the scripted adversary: the
  // algorithm must fail to complete within the constructed prefix, and
  // exactly the constructed processes must be covered.
  const DualGraph net = duals::theorem12_network(n);
  ScriptedAdversary adversary(result.script);
  SimConfig config;
  config.rule = CollisionRule::CR1;
  config.start = StartRule::Synchronous;
  config.max_rounds = result.total_rounds;
  config.stop_on_completion = false;
  const SimResult sim =
      run_broadcast(net, make_round_robin_factory(n), adversary, config);
  EXPECT_FALSE(sim.completed);

  // Covered set must be exactly the assigned processes: source + pairs.
  std::vector<bool> should_be_covered(static_cast<std::size_t>(n), false);
  should_be_covered[0] = true;
  for (const auto& [i1, i2] : result.stage_pairs) {
    should_be_covered[static_cast<std::size_t>(i1)] = true;
    should_be_covered[static_cast<std::size_t>(i2)] = true;
  }
  for (NodeId v = 0; v < n; ++v) {
    const ProcessId pid = sim.process_of_node[static_cast<std::size_t>(v)];
    const bool covered = sim.first_token[static_cast<std::size_t>(v)] != kNever;
    EXPECT_EQ(covered, should_be_covered[static_cast<std::size_t>(pid)])
        << "process " << pid;
  }
}

TEST(Theorem12, RejectsBadN) {
  EXPECT_THROW(run_theorem12(12, make_round_robin_factory(12)),
               std::invalid_argument);
  EXPECT_THROW(run_theorem12(8, make_round_robin_factory(8)),
               std::invalid_argument);
}

TEST(Theorem12, PairsAreDisjointAndUnassigned) {
  const NodeId n = 33;
  const auto result = run_theorem12(n, make_round_robin_factory(n));
  ASSERT_TRUE(result.valid);
  std::vector<ProcessId> seen{0};
  for (const auto& [i1, i2] : result.stage_pairs) {
    EXPECT_NE(i1, i2);
    for (ProcessId p : {i1, i2}) {
      EXPECT_EQ(std::count(seen.begin(), seen.end(), p), 0);
      seen.push_back(p);
    }
  }
}

}  // namespace
}  // namespace dualrad
