#pragma once

#include "adversary/basic_adversaries.hpp"
#include "adversary/greedy_blocker.hpp"
#include "algorithms/decay.hpp"
#include "algorithms/harmonic.hpp"
#include "algorithms/round_robin_bcast.hpp"
#include "algorithms/strong_select.hpp"
#include "campaign/scenario.hpp"
#include "graph/dual_builders.hpp"

/// \file builders.hpp
/// Network, algorithm and adversary builders shared by the scenario
/// catalogue files (builtin_scenarios.cpp, paper_scenarios.cpp). Each
/// returns a pure closure: the network or factory is built when the engine
/// asks for it, never at registration.

namespace dualrad::campaign::builders {

[[nodiscard]] inline NetworkBuilder layered(NodeId layers, NodeId width) {
  return [layers, width] {
    return duals::layered_complete_gprime(layers, width);
  };
}

/// The classical model (G' = G) on the diameter-2 bridge topology.
[[nodiscard]] inline NetworkBuilder classical_bridge(NodeId n) {
  return [n] { return duals::strip_unreliable(duals::bridge_network(n)); };
}

[[nodiscard]] inline AlgorithmBuilder round_robin() {
  return [](const DualGraph& net) {
    return make_round_robin_factory(net.node_count());
  };
}

[[nodiscard]] inline AlgorithmBuilder strong_select(
    StrongSelectOptions options = {}) {
  return [options = std::move(options)](const DualGraph& net) {
    return make_strong_select_factory(net.node_count(), options);
  };
}

[[nodiscard]] inline AlgorithmBuilder harmonic(HarmonicOptions options = {}) {
  return [options](const DualGraph& net) {
    return make_harmonic_factory(net.node_count(), options);
  };
}

[[nodiscard]] inline AlgorithmBuilder decay() {
  return [](const DualGraph& net) {
    return make_decay_factory(net.node_count());
  };
}

[[nodiscard]] inline AdversaryFactory benign() {
  return make_adversary_factory<BenignAdversary>();
}

[[nodiscard]] inline AdversaryFactory greedy() {
  return make_adversary_factory<GreedyBlockerAdversary>();
}

[[nodiscard]] inline AdversaryFactory full_interference() {
  return make_adversary_factory<FullInterferenceAdversary>();
}

[[nodiscard]] inline AdversaryFactory bernoulli(double p) {
  return make_seeded_adversary_factory<BernoulliAdversary>(p);
}

}  // namespace dualrad::campaign::builders
