#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "core/rng.hpp"

/// \file faultline.hpp
/// Deterministic fault injection for the serve stack.
///
/// The paper's premise is correctness under adversarial unreliability; this
/// layer turns our own transport and checkpoint substrate into such an
/// adversary — on purpose, and reproducibly. A `FaultPlan` (parsed from a
/// `--faults` spec string) carries per-category fault probabilities plus its
/// own seed stream, and a `FaultInjector` converts it into a schedule of
/// fault decisions using the same counter-based RNG discipline as
/// `core/rng.hpp`:
///
///   the k-th decision at an injection site is a pure function of
///   (plan seed, site, k).
///
/// Replaying a fault plan therefore replays the exact same decision sequence
/// at every site. (Which *operation* draws decision k can still vary with
/// thread interleaving — determinism holds per-site, not per-operation; the
/// exports stay byte-identical regardless, which is the invariant the chaos
/// soak pins.)
///
/// Injection sites:
///   wire      — send_frame(): frame drop, CRC corruption, partial write,
///               connection reset, delivery delay
///   journal   — JournalWriter::append*(): torn write, fsync EIO, ENOSPC
///   lifecycle — worker trial loop: mid-unit crash, stall
///
/// The injector is installed process-globally (install_fault_injector) so
/// the wire and checkpoint layers need no plumbing changes at call sites;
/// production builds simply never install one and pay a single relaxed
/// atomic load per potential site.

namespace dualrad::serve {

/// Per-category fault probabilities and the schedule seed. All probabilities
/// are in [0, 1]; within a category they are cumulative (at most one fault
/// fires per decision), so each category's probabilities must sum to <= 1.
struct FaultPlan {
  std::uint64_t seed = 1;

  // Wire faults (send_frame).
  double drop = 0.0;     ///< frame never leaves; sender sees a dead socket
  double corrupt = 0.0;  ///< CRC byte flipped in flight; receiver poisons
  double partial = 0.0;  ///< torn half-frame, then the connection dies
  double reset = 0.0;    ///< hard shutdown(SHUT_RDWR) of the socket
  double delay = 0.0;    ///< frame delivered late by delay_ms
  int delay_ms = 10;

  // Checkpoint journal faults (JournalWriter).
  double torn_write = 0.0;    ///< half a line reaches disk, then EIO
  double fsync_eio = 0.0;     ///< line written, fsync fails
  double append_enospc = 0.0; ///< nothing written, ENOSPC

  // Worker lifecycle faults (run_worker trial loop).
  double crash = 0.0;  ///< worker dies mid-unit (before sending a row)
  double stall = 0.0;  ///< worker freezes for stall_ms
  int stall_ms = 100;

  [[nodiscard]] bool any_wire() const {
    return drop + corrupt + partial + reset + delay > 0.0;
  }
  [[nodiscard]] bool any_journal() const {
    return torn_write + fsync_eio + append_enospc > 0.0;
  }
  [[nodiscard]] bool any_lifecycle() const { return crash + stall > 0.0; }

  bool operator==(const FaultPlan&) const = default;
};

/// Parse a fault spec string: semicolon- (or comma-) separated key=value
/// pairs. Probabilities are doubles in [0,1]; `delay` and `stall` accept
/// `P` or `P:MILLIS`.
///
///   "seed=7;drop=0.03;corrupt=0.02;delay=0.05:25;crash=0.01;stall=0.01:300"
///
/// Keys: seed, drop, corrupt, partial, reset, delay, torn, fsync_eio,
/// enospc, crash, stall. Throws std::invalid_argument on unknown keys,
/// malformed numbers, probabilities outside [0,1], or a category summing
/// past 1.
[[nodiscard]] FaultPlan parse_fault_plan(const std::string& spec);

/// Canonical round-trip of a plan back to spec form (for logs and replays):
/// parse_fault_plan(fault_plan_to_spec(plan)) == plan for every parsed plan.
[[nodiscard]] std::string fault_plan_to_spec(const FaultPlan& plan);

enum class WireFault { None, Drop, Corrupt, Partial, Reset, Delay };
enum class JournalFault { None, TornWrite, FsyncEio, AppendEnospc };
enum class LifecycleFault { None, Crash, Stall };

/// Running totals of injected faults, readable from any thread (heartbeat /
/// worker exit reporting).
struct FaultTotals {
  std::uint64_t drops = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t partials = 0;
  std::uint64_t resets = 0;
  std::uint64_t delays = 0;
  std::uint64_t torn_writes = 0;
  std::uint64_t fsync_errors = 0;
  std::uint64_t enospc_errors = 0;
  std::uint64_t crashes = 0;
  std::uint64_t stalls = 0;

  [[nodiscard]] std::uint64_t total() const {
    return drops + corruptions + partials + resets + delays + torn_writes +
           fsync_errors + enospc_errors + crashes + stalls;
  }
  [[nodiscard]] std::string summary() const;
};

/// Draws the fault schedule. Thread-safe: each site keeps one atomic decision
/// counter, and every decision is a pure CounterRng draw keyed by
/// (plan seed, site, counter value).
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// Decision k at the wire site. Sets *delay_ms for WireFault::Delay.
  [[nodiscard]] WireFault next_wire(int* delay_ms);
  /// Decision k at the journal site.
  [[nodiscard]] JournalFault next_journal();
  /// Decision k at the lifecycle site. Sets *stall_ms for Stall.
  [[nodiscard]] LifecycleFault next_lifecycle(int* stall_ms);

  /// Schedule replay without side effects: the decision the injector would
  /// make for draw `k` at each site (used by determinism tests).
  [[nodiscard]] WireFault wire_decision(std::uint64_t k) const;
  [[nodiscard]] JournalFault journal_decision(std::uint64_t k) const;
  [[nodiscard]] LifecycleFault lifecycle_decision(std::uint64_t k) const;

  [[nodiscard]] FaultTotals totals() const;

 private:
  FaultPlan plan_;
  CounterRng rng_;
  std::atomic<std::uint64_t> wire_seq_{0};
  std::atomic<std::uint64_t> journal_seq_{0};
  std::atomic<std::uint64_t> lifecycle_seq_{0};
  // Totals, one counter per FaultTotals field.
  std::atomic<std::uint64_t> drops_{0}, corruptions_{0}, partials_{0},
      resets_{0}, delays_{0}, torn_writes_{0}, fsync_errors_{0},
      enospc_errors_{0}, crashes_{0}, stalls_{0};
};

/// Install (or clear, with nullptr) the process-global injector consulted by
/// send_frame and JournalWriter. The injector must outlive its installation;
/// tests use a scoped guard. Not reference-counted — last install wins.
void install_fault_injector(FaultInjector* injector);

/// The installed injector, or nullptr (the common, fault-free case).
[[nodiscard]] FaultInjector* fault_injector();

/// RAII installation for tests: installs on construction, clears on scope
/// exit.
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(FaultInjector& injector) {
    install_fault_injector(&injector);
  }
  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;
  ~ScopedFaultInjector() { install_fault_injector(nullptr); }
};

}  // namespace dualrad::serve
