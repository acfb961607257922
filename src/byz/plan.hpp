#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "graph/dual_graph.hpp"

/// \file plan.hpp
/// f-locally-bounded Byzantine node-fault placement.
///
/// The node-fault model (Bonomi-Farina-Tixeuil; Maurer-Tixeuil, PAPERS.md):
/// an adversary corrupts a set of nodes. A corrupted ("Byzantine") node stops
/// following its process's protocol — it either stays *silent* (its sends are
/// dropped) or *forges* (it transmits a message carrying a fresh token id the
/// environment never injected, every round it is active). The placement is
/// *f-locally bounded*: every correct node has at most f Byzantine
/// in-neighbors in the reliable graph G, the classical condition under which
/// the certified-propagation rule (byz/cpa.hpp) tolerates the faults.
///
/// Channels are locally authenticated (the standard CPA assumption): a
/// Byzantine node can forge *content* but not its *identity*, so forged
/// messages carry the forger's own process id as origin.
///
/// A ByzantinePlan is built in two phases. Static faults are `add`ed and then
/// `bind`-validated against a concrete network (range, distinctness,
/// disjointness from token sources, and the final f-locally-bounded state).
/// After binding, `try_corrupt` grows the placement *incrementally* — each
/// corruption is accepted only if it keeps every correct node within the f
/// bound — which is the primitive adaptive adversaries (byz/adaptive.hpp)
/// drive from the `on_round_end` coverage-delta hook. `freeze` snapshots the
/// current placement as the baseline that `reset_adaptive` restores, so one
/// plan object can be shared by repeated executions (sparse and reference
/// engine replays) with adaptive corruptions rolled back between
/// runs.
///
/// Forged token ids live in a reserved band starting at kForgedTokenBase so
/// they can never collide with legitimate ids 1..k (enforced on the other
/// side by validate_token_sources, core/simulator.hpp). Each forger's id is
/// drawn deterministically from the plan's bind seed, so executions are
/// bit-identical across engines and thread counts.

namespace dualrad::byz {

/// First token id of the forged band. Legitimate multi-message ids are
/// 1..k with k < kForgedTokenBase (validate_token_sources enforces it);
/// every forged id is >= kForgedTokenBase, so `token >= kForgedTokenBase`
/// is the engine's forgery test.
inline constexpr TokenId kForgedTokenBase = TokenId{1} << 20;

enum class ByzBehavior : std::uint8_t {
  Silent,  ///< drops every protocol send of the corrupted node
  Forge,   ///< additionally injects a forged-token message every active round
};

struct ByzFault {
  NodeId node = kInvalidNode;
  ByzBehavior behavior = ByzBehavior::Silent;
  /// First round the fault is active; protocol sends before it pass through.
  Round active_from = 1;
  /// Forged token id (Forge behavior only), assigned at bind/corrupt time.
  TokenId forged_token = kNoToken;

  friend bool operator==(const ByzFault&, const ByzFault&) = default;
};

class ByzantinePlan {
 public:
  /// Forgers per plan are capped so the engines can track forged-token
  /// receptions in one 64-bit mask per node.
  static constexpr std::size_t kMaxForgers = 64;

  explicit ByzantinePlan(int f = 1);

  [[nodiscard]] int f() const { return f_; }
  [[nodiscard]] bool bound() const { return n_ != 0; }
  [[nodiscard]] NodeId node_count() const { return n_; }

  /// Declare a static fault (before bind). Validation happens at bind.
  void add(NodeId node, ByzBehavior behavior, Round active_from = 1);

  /// Validate the static faults against `net` and commit them: every fault
  /// node must be in range, distinct, and not a token source (the effective
  /// source set: `token_sources`, or {net.source()} when empty); the final
  /// placement must leave every correct node with at most f Byzantine
  /// in-neighbors in G. Forge faults receive their forged token ids here,
  /// derived from `seed`. Throws std::invalid_argument on violation.
  /// Implies freeze(): the static faults become the adaptive baseline.
  void bind(const DualGraph& net, const std::vector<NodeId>& token_sources,
            std::uint64_t seed);

  /// Snapshot the current placement as the baseline reset_adaptive restores.
  void freeze();

  /// Roll adaptive corruptions back to the last freeze(). Idempotent.
  void reset_adaptive();

  /// Incrementally corrupt `node` (requires bound()). Returns false — with
  /// no state change — when the corruption is inadmissible: node out of
  /// range, already Byzantine, a token source, would push some correct
  /// node past the f bound, or (Forge) the forger cap is reached.
  bool try_corrupt(NodeId node, ByzBehavior behavior, Round active_from);

  /// All faults, in addition order (append-only between resets — the order
  /// the engines' runtime syncs slots in).
  [[nodiscard]] const std::vector<ByzFault>& faults() const { return faults_; }

  [[nodiscard]] bool is_byzantine(NodeId v) const {
    return bound() && byz_flag_[static_cast<std::size_t>(v)] != 0;
  }

  /// Bumped by bind / try_corrupt / reset_adaptive; the engines' runtime
  /// re-syncs when it changes.
  [[nodiscard]] std::uint64_t version() const { return version_; }

 private:
  [[nodiscard]] TokenId assign_forged_token(NodeId node);
  void commit(ByzFault fault, std::span<const NodeId> g_row);

  int f_ = 1;
  NodeId n_ = 0;  ///< 0 until bound
  const DualGraph* net_ = nullptr;
  std::vector<ByzFault> faults_;
  std::vector<std::uint8_t> byz_flag_;    ///< per node, after bind
  std::vector<std::uint8_t> source_flag_; ///< effective token sources
  std::vector<std::int32_t> byz_in_;      ///< Byzantine in-degree in G
  std::set<TokenId> used_tokens_;
  std::size_t forge_count_ = 0;
  std::size_t baseline_count_ = 0;  ///< faults_ prefix restored by reset
  std::uint64_t id_seed_ = 0;
  std::uint64_t version_ = 0;
};

/// Random f-locally-bounded placement: bind an empty plan, then draw nodes
/// from a seeded stream and try_corrupt each until `count` faults are placed
/// (or the attempt budget runs out — dense graphs may not admit `count`
/// admissible faults). The result is frozen, so reset_adaptive keeps the
/// random placement. Deterministic in (net, f, count, behavior, seed).
[[nodiscard]] ByzantinePlan make_random_plan(
    const DualGraph& net, int f, std::size_t count, ByzBehavior behavior,
    const std::vector<NodeId>& token_sources, std::uint64_t seed);

}  // namespace dualrad::byz
