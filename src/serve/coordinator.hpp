#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/engine.hpp"
#include "campaign/scenario.hpp"
#include "serve/checkpoint.hpp"

/// \file coordinator.hpp
/// The persistent campaign coordinator: a job queue of scenario x trial-range
/// work units with lease/seal/requeue semantics.
///
/// Dispatch is at-least-once: a unit leased to a worker that dies or stalls
/// past the lease timeout is requeued and reissued to the next worker that
/// asks. Commit is per unit and exactly-once by value:
///  - add_row() takes one streamed trial row. The first row for a trial is
///    journaled at once (one write(2), no fsync) and counted; a replay (from
///    a requeued unit or a worker resending after a lost connection) must be
///    byte-identical to it and dedupes silently, while a conflicting row
///    throws, because under the engine's determinism contract two honest
///    executions of one trial can never differ.
///  - seal() ends a unit. It answers Resend while any row of the unit is
///    missing, and otherwise Ack after one fsync covering every journaled row
///    of the unit. Only then does the unit become Done — acked implies
///    durable, and done()/wait_done() imply every row reached the disk. The
///    fsync runs outside the coordinator mutex, so leases and status never
///    queue behind the disk; concurrent seals share one fsync when an earlier
///    one already covers their rows.
///
/// Self-healing:
///  - Adaptive leases: once kLeaseObservations units have completed, the
///    lease window is re-derived from observed unit wall times (p90 x
///    kLeaseSlack, clamped to [kLeaseFloorSecs, kLeaseCeilSecs]), so a slow
///    scenario doesn't thrash on a static timeout and a fast one doesn't
///    wait 30 s to reissue after a worker dies.
///  - Poison quarantine: a unit whose lease expires `max_unit_expiries`
///    times is quarantined instead of requeued forever — the campaign
///    completes with an explicit quarantined manifest (finalize() exports
///    the committed subset) rather than livelocking. A late seal for a
///    quarantined unit is still accepted and can heal it back to Done.
///  - Journal degradation: a journal write or fsync failure disables
///    checkpointing (counted and reported in status) but never fails the
///    row or the seal — availability over durability; the on-disk prefix
///    stays recoverable.
///
/// All public methods are thread-safe; the socket server calls them from one
/// thread per connection.

namespace dualrad::serve {

/// One work unit: a slice of a scenario's deterministic trial stream.
/// Every trial inside is individually addressable (and thus individually
/// retryable) as (scenario, trial index) under the campaign master seed.
struct JobSpec {
  std::uint64_t unit = 0;  ///< coordinator-local unit id
  std::string scenario;
  std::uint32_t trial_begin = 0;
  std::uint32_t trial_end = 0;  ///< exclusive
  std::uint64_t master_seed = 1;
  bool collect_telemetry = false;
};

class Coordinator {
 public:
  struct Config {
    std::uint64_t master_seed = 1;
    /// When nonzero, overrides every scenario's trial count.
    std::size_t trials_override = 0;
    /// Trials per work unit (lease granularity). 0 means one unit per
    /// scenario; 1 maximizes retry granularity.
    std::uint32_t unit_trials = 4;
    /// Starting lease timeout: a unit not sealed within this window is
    /// requeued. Sweeps run on every lease request (long-polls wake for
    /// them), so expiry needs no dedicated thread. Once kLeaseObservations
    /// units have completed, the window adapts (see lease_window_secs_locked).
    double lease_secs = 30.0;
    /// Quarantine threshold: a unit whose lease expires this many times is
    /// quarantined (reported, not requeued). 0 disables quarantine.
    std::uint32_t max_unit_expiries = 5;
    /// Append-only journal path; empty disables checkpointing.
    std::string journal_path;
    /// Load the journal before dispatching and skip committed trials.
    bool resume = false;
    /// Propagated to workers in every JobSpec.
    bool collect_telemetry = false;
  };

  /// Adaptive lease window: p90(observed unit seconds) x kLeaseSlack,
  /// clamped to [kLeaseFloorSecs, kLeaseCeilSecs], once kLeaseObservations
  /// units have completed.
  static constexpr double kLeaseSlack = 4.0;
  static constexpr std::size_t kLeaseObservations = 8;
  static constexpr double kLeaseFloorSecs = 0.05;
  static constexpr double kLeaseCeilSecs = 3600.0;

  explicit Coordinator(Config config);

  /// Adjust per-campaign parameters ahead of load_campaign (used by the
  /// submit path). Throws if a campaign is in progress.
  void configure_campaign(std::uint64_t master_seed,
                          std::size_t trials_override);

  /// Install the campaign grid. Validates like run_campaign (duplicate
  /// names, trial counts); with Config::resume, loads the journal and
  /// pre-commits its rows (units it completes are Done at once). Throws if a campaign is already loaded and not
  /// yet finished.
  void load_campaign(const std::vector<campaign::Scenario>& scenarios);

  [[nodiscard]] bool campaign_loaded() const;

  /// Register a worker (empty id requests a fresh one) and return its id.
  [[nodiscard]] std::string register_worker(const std::string& requested);

  /// Lease the next available unit; nullopt when nothing is leasable. With a
  /// nonzero `wait` this is a long-poll: it blocks until a unit becomes
  /// leasable (a lease deadline passes), the campaign is loaded or settles,
  /// `wait` elapses, or `cancel` is raised and wake_waiters() called.
  /// Callers tell the outcomes apart through campaign_loaded() and done().
  [[nodiscard]] std::optional<JobSpec> lease(
      const std::string& worker, std::chrono::milliseconds wait = {},
      const std::atomic<bool>* cancel = nullptr);

  /// Wake every blocked lease() and wait_done() so they re-check their
  /// predicates (a raised cancel flag among them).
  void wake_waiters();

  enum class Row { Accepted, Duplicate };

  /// Take one trial row. Validates the seed against the derived stream,
  /// journals first arrivals (write(2) only — seal() makes them durable),
  /// dedupes byte-identical replays; throws std::invalid_argument on unknown
  /// trials and std::runtime_error on a conflicting replay (byte-identity
  /// violation).
  Row add_row(const campaign::TrialRow& row);

  enum class Seal { Ack, Resend };

  /// Seal the trial range [trial_begin, trial_end) of `scenario`: Resend if
  /// any of its rows has not arrived, else Ack once an fsync covers every
  /// journaled row of the range, marking the units inside it Done. Throws
  /// std::invalid_argument on an unknown scenario or a bad range.
  Seal seal(std::string_view scenario, std::uint32_t trial_begin,
            std::uint32_t trial_end);

  /// Record an out-of-band telemetry row (first one per trial wins). Also
  /// journaled (when a journal is open and telemetry collection is on) so
  /// `--resume` can replay telemetry of crashed runs.
  void add_telemetry(const campaign::TelemetryRow& row);

  /// True when every unit is settled: Done, or Quarantined. A campaign with
  /// quarantined units is "done" in the liveness sense — nothing further
  /// will be dispatched — but finalize() reports the gap explicitly.
  [[nodiscard]] bool done() const;

  /// Block until the campaign completes (or `timeout` passes; zero waits
  /// forever). Returns done().
  bool wait_done(std::chrono::milliseconds timeout = {});

  struct Status {
    bool loaded = false;
    bool finished = false;
    std::size_t scenarios = 0;
    std::size_t total_trials = 0;
    std::size_t committed = 0;
    std::size_t resumed = 0;  ///< of `committed`, satisfied from the journal
    std::size_t units_pending = 0;
    std::size_t units_leased = 0;
    std::size_t units_done = 0;
    std::size_t units_quarantined = 0;
    std::size_t trials_quarantined = 0;  ///< uncommitted trials stuck there
    std::size_t workers = 0;
    std::size_t lease_expiries = 0;
    std::size_t journal_errors = 0;
    std::size_t journal_syncs = 0;    ///< fsyncs issued by seals
    double journal_sync_ms = 0.0;     ///< wall time spent in them
    std::size_t seals = 0;            ///< seals answered Ack
    std::size_t row_resends = 0;      ///< seals answered Resend
    /// The lease window new leases get right now, in milliseconds (adaptive
    /// once enough observations accumulate, else the static lease_secs).
    std::size_t lease_ms_effective = 0;
  };
  [[nodiscard]] Status status() const;

  /// One quarantined unit, for the explicit end-of-campaign manifest.
  struct QuarantinedUnit {
    std::string scenario;
    std::uint32_t trial_begin = 0;
    std::uint32_t trial_end = 0;   ///< exclusive
    std::uint32_t committed = 0;   ///< trials in range that DID commit
    std::uint32_t expiries = 0;    ///< lease expiries that condemned it
    std::string last_worker;       ///< last worker it was leased to
  };
  [[nodiscard]] std::vector<QuarantinedUnit> quarantined() const;

  /// Assemble the finished campaign: rows in canonical (scenario
  /// registration order, trial) order, summaries via the shared
  /// summarize_trials — byte-identical exports to a batch run_campaign of
  /// the same grid and master seed. Throws if !done(). With quarantined
  /// units, exports the committed subset (per-scenario grid counts shrink to
  /// the committed rows; scenarios with none are omitted from summaries) —
  /// the quarantined() manifest names exactly what is missing.
  [[nodiscard]] campaign::CampaignResult finalize() const;

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  enum class UnitState { Pending, Leased, Done, Quarantined };

  struct Unit {
    std::size_t scenario = 0;
    std::uint32_t trial_begin = 0;
    std::uint32_t trial_end = 0;
    UnitState state = UnitState::Pending;
    std::chrono::steady_clock::time_point lease_start{};
    std::chrono::steady_clock::time_point lease_deadline{};
    std::string worker;
    std::uint32_t remaining = 0;  ///< trials in range without a row yet
    std::uint32_t expiries = 0;   ///< lease expiries so far (poison counter)
    /// Journal write sequence number of the unit's latest journaled row;
    /// the unit is durable once an fsync has covered it.
    std::uint64_t journal_seq = 0;
  };

  struct ScenarioSlot {
    std::string name;
    std::size_t trials = 0;
    std::size_t first_job = 0;
  };

  void sweep_expired_leases_locked();
  [[nodiscard]] std::optional<JobSpec> try_lease_locked(
      const std::string& worker);
  [[nodiscard]] std::chrono::steady_clock::time_point next_lease_event_locked()
      const;
  Row add_row_locked(const campaign::TrialRow& row, bool from_journal);
  [[nodiscard]] bool settled_locked() const;
  [[nodiscard]] double lease_window_secs_locked() const;
  void mark_done_locked(Unit& unit);
  template <class JournalRow>
  void journal_append_locked(const JournalRow& row);
  void journal_failed_locked(const std::string& error);
  /// fsync the journal unless an earlier fsync already covered `seq`.
  void sync_journal(std::uint64_t seq);

  Config config_;
  /// Serializes fsyncs and guards the journal descriptor's lifetime (open
  /// and close take it too). Lock order: sync_mutex_ before mutex_.
  std::mutex sync_mutex_;
  mutable std::mutex mutex_;
  /// Signalled when the campaign loads or settles, and by wake_waiters().
  std::condition_variable changed_cv_;

  bool loaded_ = false;
  std::uint64_t generation_ = 0;  ///< load_campaign calls so far
  std::vector<ScenarioSlot> scenarios_;
  std::map<std::string, std::size_t, std::less<>> scenario_index_;
  std::vector<Unit> units_;
  std::vector<std::size_t> unit_of_job_;
  std::vector<campaign::TrialRow> rows_;
  std::vector<std::string> row_bytes_;  ///< canonical JSONL per committed slot
  std::vector<campaign::TelemetryRow> telemetry_;
  std::vector<char> telemetry_present_;
  std::size_t committed_ = 0;
  std::size_t resumed_ = 0;
  std::size_t next_worker_ = 0;
  std::size_t workers_seen_ = 0;
  std::size_t lease_expiries_ = 0;
  std::size_t journal_errors_ = 0;
  std::string journal_error_;  ///< first journal failure, for status logs
  std::size_t journal_syncs_ = 0;
  std::int64_t journal_sync_ns_ = 0;
  std::size_t seals_ = 0;
  std::size_t row_resends_ = 0;
  /// Wall seconds of completed units, for the adaptive lease p90.
  std::vector<double> unit_secs_;
  JournalWriter journal_;
  bool journal_live_ = false;       ///< open and not degraded
  std::uint64_t journal_written_ = 0;  ///< lines written (sequence numbers)
  std::uint64_t journal_synced_ = 0;   ///< lines covered by an fsync
};

}  // namespace dualrad::serve
