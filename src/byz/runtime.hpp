#pragma once

#include <cstdint>
#include <vector>

#include "byz/plan.hpp"
#include "core/message.hpp"
#include "core/simulator.hpp"
#include "core/types.hpp"

/// \file runtime.hpp
/// Per-execution Byzantine fault machinery shared by both round engines.
///
/// The engines stay fault-agnostic except for three hook points, all driven
/// through this class so the sparse CSR engine and the dense reference
/// engine apply byte-identical behavior:
///
///  1. `rewrite_senders` — after the round's poll (senders ascending, final):
///     drops the protocol sends of active Byzantine nodes and injects one
///     forged-token message per active forger, reporting the removed/added
///     nodes so the engine can fix its sender flags and work estimates. The
///     same pass records injection and victim provenance (a *victim* is any
///     non-forger that transmits a forged token — under suppressed Byzantine
///     protocol sends, necessarily a correct node relaying what it heard).
///  2. `may_transmit` — the poll-time send check for forged token ids: legal
///     only for the token's forger or a node the token was delivered to
///     (relaying what you heard is protocol-legal; inventing an id is not).
///  3. `note_delivery` — called from the delivery phase when a
///     forged-token message is delivered at a node. Writes only per-node
///     state.
///
/// `finalize` folds the provenance into SimResult::forged_tokens — the
/// "did a forged token win" audit dimension.

namespace dualrad::byz {

class ByzRuntime {
 public:
  /// `plan` must be bound to a network with `process_of_node.size()` nodes
  /// and outlive the runtime; `process_of_node` is the execution's proc
  /// mapping (forged messages carry the forger's own process id — locally
  /// authenticated channels).
  ByzRuntime(const ByzantinePlan& plan,
             const std::vector<ProcessId>& process_of_node);

  [[nodiscard]] static bool is_forged(TokenId tok) {
    return tok >= kForgedTokenBase;
  }

  /// Apply the round's Byzantine behaviors to the final ascending `senders`
  /// list (in place, kept ascending). Nodes appended to `removed` lost their
  /// sender status; nodes appended to `added` gained it (a forger that was
  /// already a protocol sender appears in both: its message is replaced).
  void rewrite_senders(Round round, std::vector<NodeId>& senders,
                       std::vector<Message>& sent_msg,
                       std::vector<NodeId>& removed,
                       std::vector<NodeId>& added);

  /// True iff `v` may legally transmit forged token `tok`: it is the
  /// registered forger, or the token was previously delivered to it.
  [[nodiscard]] bool may_transmit(NodeId v, TokenId tok) const;

  /// Record the delivery of forged token `tok` at node `v`. The token must
  /// be registered.
  void note_delivery(TokenId tok, NodeId v);

  /// Per-forged-token provenance, in fault-addition order.
  [[nodiscard]] std::vector<ForgedTokenRecord> finalize() const;

 private:
  struct Slot {
    TokenId token = kNoToken;
    NodeId forger = kInvalidNode;
    Round active_from = 1;
    Round first_injected = kNever;
    std::uint64_t injections = 0;
    NodeId first_victim = kInvalidNode;
    Round first_victim_round = kNever;
    std::uint64_t victim_sends = 0;
  };

  void refresh();
  [[nodiscard]] std::size_t slot_index(TokenId tok) const;  // npos if absent

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  const ByzantinePlan* plan_;
  const std::vector<ProcessId>* pids_;
  std::uint64_t synced_version_;
  std::size_t synced_faults_ = 0;
  /// Faults sorted by node — the suppression merge against ascending senders.
  std::vector<ByzFault> by_node_;
  /// Forge slots in fault-addition order; indices are stable (faults are
  /// append-only within one execution), so seen-mask bits never move.
  std::vector<Slot> slots_;
  std::vector<std::pair<TokenId, std::uint32_t>> slot_of_token_;  ///< sorted
  /// Per-node bitmask of forged tokens delivered there (<= 64 forgers,
  /// ByzantinePlan::kMaxForgers).
  std::vector<std::uint64_t> seen_mask_;
  std::vector<NodeId> injected_;  ///< per-round scratch
};

}  // namespace dualrad::byz
