#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/message.hpp"
#include "core/reception.hpp"
#include "core/types.hpp"

/// \file process.hpp
/// The process automaton interface (Section 2.1).
///
/// An algorithm is a collection of n processes, each a deterministic or
/// probabilistic automaton with a unique id. The adversary maps processes to
/// graph nodes; processes never learn which node they occupy.
///
/// Lifecycle, per execution:
///   1. `on_activate(round, initial)` - exactly once, when the process wakes.
///      Under synchronous start every process is activated before round 1
///      (round = 0, initial = nullopt except for the source, which gets the
///      broadcast token from the environment). Under asynchronous start a
///      non-source process is activated by its first received message
///      (round = that round, initial = the message); activation consumes that
///      round's reception.
///   2. Per round r while awake: `next_action(r)` is queried, then after
///      delivery `on_receive(r, reception)` advances the state.
///
/// Purity contract: `next_action(r)` must be idempotent - calling it any
/// number of times between state transitions returns the same Action. This is
/// what makes executions replayable and lets the lower-bound constructions
/// (Theorem 12) peek at "would this process send next round?" without
/// perturbing it. Randomized processes satisfy the contract by drawing
/// per-round coins from a counter-based RNG (core/rng.hpp) keyed on the
/// round number.
namespace dualrad {

/// One named scalar a process exports at the end of an execution (see
/// Process::final_metrics). Layered protocols (e.g. the abstract MAC layer,
/// src/mac/) use these to surface internal measurements — ack latencies,
/// queue depths — that the plain broadcast result cannot express.
struct ProcessMetric {
  std::string name;
  double value = 0.0;
};

/// Which receptions can still change a process's state (Process::hearing).
enum class Hearing : std::uint8_t {
  All,         ///< every reception, silence included (the default)
  NonSilence,  ///< messages and collisions; silence is a no-op
  None,        ///< nothing: the state is final
};

/// What a process does at the start of a round.
struct Action {
  bool send = false;
  Message message{};  ///< meaningful only when send == true

  [[nodiscard]] static Action silent() { return {}; }
  [[nodiscard]] static Action transmit(const Message& m) {
    return Action{true, m};
  }
};

class Process {
 public:
  virtual ~Process() = default;

  Process& operator=(const Process&) = delete;

  [[nodiscard]] ProcessId id() const { return id_; }

  /// Called exactly once when the process wakes up (see file comment).
  virtual void on_activate(Round round, const std::optional<Message>& initial) = 0;

  /// The process's decision for round `round`. Must be idempotent.
  [[nodiscard]] virtual Action next_action(Round round) const = 0;

  /// State transition on the reception at the end of round `round`.
  virtual void on_receive(Round round, const Reception& reception) = 0;

  /// Scheduling hint for the sparse round engine: the smallest round
  /// r >= `from` at which `next_action(r)` may return a send, assuming no
  /// state transition (an on_receive the hearing() hint admits, or
  /// on_activate) happens before r; kNever if the process will never send
  /// again absent such a transition. The engine promises to query
  /// `next_action` at the hinted round (a conservative hint that
  /// over-promises sends is fine — the engine just re-asks); a hint that
  /// *skips* a round where `next_action(r).send` would be true is a contract
  /// violation. The default — "I might send next round" — degenerates to
  /// per-round polling and is always correct. Counter-RNG processes
  /// (core/rng.hpp) can look ahead because their future coins are pure
  /// functions of the round number.
  [[nodiscard]] virtual Round next_send_round(Round from) const { return from; }

  /// Delivery hint for the sparse round engine: which receptions can still
  /// change this process's state or observable behavior (next_action,
  /// next_send_round, final_metrics). The engine skips `on_receive` for
  /// every reception the current answer excludes, and re-reads it after
  /// each on_activate and each on_receive it does make, so the answer may
  /// depend on state. NonSilence claims silence receptions are no-ops; None
  /// claims every reception is — a broadcast process that already holds the
  /// token has nothing left to learn — and is final, since the engine never
  /// calls on_receive (or re-reads the hint) again. Opt-in per concrete
  /// class: narrow the answer only where `on_receive` provably ignores
  /// those receptions (and no exported metric counts them). The default
  /// keeps the reference engine's exact per-round delivery.
  [[nodiscard]] virtual Hearing hearing() const { return Hearing::All; }

  /// Deep copy (same id, same state). Required for execution branching in
  /// the lower-bound harnesses.
  [[nodiscard]] virtual std::unique_ptr<Process> clone() const = 0;

  /// Optional end-of-execution metrics. The simulator collects these into
  /// SimResult::process_metrics after the last round, so observers (campaign
  /// exports, benches) can read protocol-internal measurements without
  /// holding the process objects. Default: none.
  [[nodiscard]] virtual std::vector<ProcessMetric> final_metrics() const {
    return {};
  }

 protected:
  explicit Process(ProcessId id) : id_(id) {
    DUALRAD_REQUIRE(id >= 0, "process id must be non-negative");
  }
  /// Copyable by derived classes only (for implementing clone()).
  Process(const Process&) = default;

 private:
  ProcessId id_;
};

/// Creates the process with identifier `id` out of `n`, with randomness key
/// `seed` (ignored by deterministic algorithms). Factories must be pure:
/// identical arguments produce identically-behaving processes.
using ProcessFactory = std::function<std::unique_ptr<Process>(
    ProcessId id, NodeId n, std::uint64_t seed)>;

}  // namespace dualrad
