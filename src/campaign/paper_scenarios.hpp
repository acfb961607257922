#pragma once

#include "campaign/registry.hpp"

/// \file paper_scenarios.hpp
/// The paper's simulator sweeps as the paper/* campaign family: Table 1's
/// and Table 2's upper-bound columns, the Strong Select and Harmonic
/// Broadcast scaling figures (F1, F2), the ablations A1-A4, the Theorem 11
/// family (E6), repeated broadcast (X1) and the oracle gap (X2). Names are
/// paper/<table>/<algorithm>/<network>/<adversary>; a row that also fills a
/// column of another table carries that table's "paper/<table>" tag, so
/// `dualrad_campaign --filter=paper/t1` regenerates all of Table 1's
/// simulator columns. tests/test_paper.cpp asserts each table's claim.
///
/// Names and tags avoid every substring another caller filters on ("dual",
/// "classical", "harmonic", "quick", "mac", "byz", "scale"): Harmonic
/// Broadcast rows are spelled "hb".

namespace dualrad::campaign {

/// Register the paper/* scenarios into `registry`.
void register_paper_scenarios(ScenarioRegistry& registry);

}  // namespace dualrad::campaign
