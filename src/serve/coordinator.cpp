#include "serve/coordinator.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

#include "campaign/export.hpp"

namespace dualrad::serve {

Coordinator::Coordinator(Config config) : config_(std::move(config)) {
  DUALRAD_REQUIRE(config_.lease_secs > 0.0, "lease_secs must be positive");
}

void Coordinator::configure_campaign(std::uint64_t master_seed,
                                     std::size_t trials_override) {
  const std::lock_guard<std::mutex> lock(mutex_);
  DUALRAD_REQUIRE(!loaded_ || settled_locked(),
                  "cannot reconfigure mid-campaign");
  config_.master_seed = master_seed;
  config_.trials_override = trials_override;
}

void Coordinator::load_campaign(
    const std::vector<campaign::Scenario>& scenarios) {
  // Journal load happens outside the lock (file I/O), before the grid is
  // published; rows cannot arrive for an unloaded campaign anyway.
  JournalLoad journal_rows;
  if (config_.resume) {
    DUALRAD_REQUIRE(!config_.journal_path.empty(),
                    "resume requires a journal path");
    journal_rows = load_journal(config_.journal_path);
    // Cut any torn final line before reopening for append, or the next
    // append would concatenate onto the fragment and corrupt it.
    truncate_torn_tail(config_.journal_path, journal_rows);
  }

  // sync_mutex_ first: no seal may be mid-fsync while the journal reopens.
  const std::lock_guard<std::mutex> sync_lock(sync_mutex_);
  const std::lock_guard<std::mutex> lock(mutex_);
  DUALRAD_REQUIRE(!loaded_ || settled_locked(),
                  "a campaign is already in progress");

  scenarios_.clear();
  scenario_index_.clear();
  units_.clear();
  std::set<std::string> names;
  std::size_t total = 0;
  for (const campaign::Scenario& s : scenarios) {
    DUALRAD_REQUIRE(names.insert(s.name).second,
                    "duplicate scenario name in campaign: " + s.name);
    const std::size_t trials =
        config_.trials_override != 0 ? config_.trials_override : s.trials;
    DUALRAD_REQUIRE(trials >= 1,
                    "scenario '" + s.name + "' needs at least one trial");
    DUALRAD_REQUIRE(trials <= 0xFFFFFFFFull,
                    "scenario '" + s.name + "' trial count exceeds 2^32");
    scenario_index_.emplace(s.name, scenarios_.size());
    scenarios_.push_back(ScenarioSlot{s.name, trials, total});
    total += trials;
  }

  rows_.assign(total, {});
  row_bytes_.assign(total, {});
  telemetry_.assign(config_.collect_telemetry ? total : 0, {});
  telemetry_present_.assign(config_.collect_telemetry ? total : 0, 0);
  unit_of_job_.assign(total, 0);
  committed_ = 0;
  resumed_ = 0;
  lease_expiries_ = 0;
  journal_errors_ = 0;
  journal_error_.clear();
  journal_syncs_ = 0;
  journal_sync_ns_ = 0;
  seals_ = 0;
  row_resends_ = 0;
  unit_secs_.clear();

  for (std::size_t si = 0; si < scenarios_.size(); ++si) {
    const ScenarioSlot& slot = scenarios_[si];
    const std::uint32_t trials = static_cast<std::uint32_t>(slot.trials);
    const std::uint32_t step =
        config_.unit_trials == 0 ? trials : config_.unit_trials;
    for (std::uint32_t begin = 0; begin < trials; begin += step) {
      const std::uint32_t end = std::min(trials, begin + step);
      Unit unit;
      unit.scenario = si;
      unit.trial_begin = begin;
      unit.trial_end = end;
      unit.remaining = end - begin;
      for (std::uint32_t t = begin; t < end; ++t) {
        unit_of_job_[slot.first_job + t] = units_.size();
      }
      units_.push_back(std::move(unit));
    }
  }

  loaded_ = true;
  ++generation_;

  // Open (or create) the journal before replaying: replayed rows are already
  // in the file, so add_row_locked(from_journal=true) skips re-appending.
  journal_live_ = false;
  journal_written_ = 0;
  journal_synced_ = 0;
  if (!config_.journal_path.empty()) {
    journal_.open(config_.journal_path, /*fsync_each=*/false);
    journal_live_ = true;
  }
  for (const campaign::TrialRow& row : journal_rows.rows) {
    const Row outcome = add_row_locked(row, /*from_journal=*/true);
    DUALRAD_CHECK(outcome == Row::Accepted,
                  "journal replay produced a duplicate");
    ++resumed_;
  }
  if (resumed_ != 0) {
    // Replayed rows may never have been fsynced (the previous coordinator
    // died before sealing them); one fsync makes them durable, so their
    // units can be Done at once.
    try {
      journal_.sync();
    } catch (const std::exception& e) {
      journal_failed_locked(e.what());
    }
    for (Unit& unit : units_) {
      if (unit.remaining == 0) mark_done_locked(unit);
    }
  }
  // Replay journaled telemetry (first-wins, same validation as the live
  // path) so crashed runs keep their telemetry through --resume.
  if (config_.collect_telemetry) {
    for (const campaign::TelemetryRow& row : journal_rows.telemetry) {
      const auto it = scenario_index_.find(row.scenario);
      if (it == scenario_index_.end()) continue;
      const ScenarioSlot& slot = scenarios_[it->second];
      if (row.trial >= slot.trials) continue;
      const std::size_t job = slot.first_job + row.trial;
      if (telemetry_present_[job]) continue;
      telemetry_[job] = row;
      telemetry_present_[job] = 1;
    }
  }
  changed_cv_.notify_all();
}

bool Coordinator::campaign_loaded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return loaded_;
}

std::string Coordinator::register_worker(const std::string& requested) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++workers_seen_;
  if (!requested.empty()) return requested;
  return "w" + std::to_string(next_worker_++);
}

bool Coordinator::settled_locked() const {
  if (!loaded_) return false;
  for (const Unit& unit : units_) {
    if (unit.state != UnitState::Done && unit.state != UnitState::Quarantined) {
      return false;
    }
  }
  return true;
}

double Coordinator::lease_window_secs_locked() const {
  if (unit_secs_.size() < kLeaseObservations) {
    return config_.lease_secs;
  }
  // p90 of observed unit wall times, times slack: long enough that an honest
  // slow unit survives, short enough that a dead worker is detected in a few
  // unit-times rather than a static 30 s.
  std::vector<double> secs = unit_secs_;
  const std::size_t k = (secs.size() * 9) / 10;
  const std::size_t idx = std::min(k, secs.size() - 1);
  std::nth_element(secs.begin(),
                   secs.begin() + static_cast<std::ptrdiff_t>(idx), secs.end());
  const double p90 = secs[idx];
  return std::clamp(p90 * kLeaseSlack, kLeaseFloorSecs, kLeaseCeilSecs);
}

void Coordinator::sweep_expired_leases_locked() {
  const auto now = std::chrono::steady_clock::now();
  bool newly_settled = false;
  for (Unit& unit : units_) {
    if (unit.state != UnitState::Leased || now < unit.lease_deadline) continue;
    // The worker died or stalled. Trials it already committed stay
    // committed; a later worker re-running them dedupes byte-wise.
    ++lease_expiries_;
    ++unit.expiries;
    if (config_.max_unit_expiries != 0 &&
        unit.expiries >= config_.max_unit_expiries) {
      // Poison quarantine: this unit has now killed (or outlived) N leases.
      // Requeueing it forever would livelock the campaign; park it and let
      // finalize() report the gap explicitly. A late seal can still heal
      // it back to Done. `worker` is kept for the manifest — the last
      // holder is the first place to look for the poison.
      unit.state = UnitState::Quarantined;
      newly_settled = true;
    } else {
      unit.worker.clear();
      unit.state = UnitState::Pending;
    }
  }
  if (newly_settled && settled_locked()) changed_cv_.notify_all();
}

std::optional<JobSpec> Coordinator::lease(const std::string& worker,
                                         std::chrono::milliseconds wait,
                                         const std::atomic<bool>* cancel) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto until = std::chrono::steady_clock::now() + wait;
  for (;;) {
    if (loaded_) {
      sweep_expired_leases_locked();
      if (std::optional<JobSpec> job = try_lease_locked(worker)) return job;
      if (settled_locked()) return std::nullopt;
    }
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return std::nullopt;
    }
    // Long-poll: sleep until the next moment something can become leasable
    // (a lease deadline), or a notify (load, settle, wake_waiters). `until`
    // is finite, so the wait is bounded.
    const auto now = std::chrono::steady_clock::now();
    if (now >= until) return std::nullopt;
    changed_cv_.wait_until(lock, std::min(until, next_lease_event_locked()));
  }
}

void Coordinator::wake_waiters() {
  const std::lock_guard<std::mutex> lock(mutex_);
  changed_cv_.notify_all();
}

std::chrono::steady_clock::time_point Coordinator::next_lease_event_locked()
    const {
  auto next = std::chrono::steady_clock::time_point::max();
  for (const Unit& unit : units_) {
    if (unit.state == UnitState::Leased) {
      next = std::min(next, unit.lease_deadline);
    }
  }
  return next;
}

std::optional<JobSpec> Coordinator::try_lease_locked(const std::string& worker) {
  const auto now = std::chrono::steady_clock::now();
  for (std::size_t ui = 0; ui < units_.size(); ++ui) {
    Unit& unit = units_[ui];
    if (unit.state != UnitState::Pending) continue;
    unit.state = UnitState::Leased;
    unit.worker = worker;
    unit.lease_start = now;
    unit.lease_deadline =
        now + std::chrono::microseconds(static_cast<std::int64_t>(
                  lease_window_secs_locked() * 1e6));
    JobSpec job;
    job.unit = ui;
    job.scenario = scenarios_[unit.scenario].name;
    job.trial_begin = unit.trial_begin;
    job.trial_end = unit.trial_end;
    job.master_seed = config_.master_seed;
    job.collect_telemetry = config_.collect_telemetry;
    return job;
  }
  return std::nullopt;
}

Coordinator::Row Coordinator::add_row_locked(const campaign::TrialRow& row,
                                             bool from_journal) {
  DUALRAD_REQUIRE(loaded_, "row before a campaign was loaded");
  const auto it = scenario_index_.find(row.scenario);
  DUALRAD_REQUIRE(it != scenario_index_.end(),
                  "row for unknown scenario: " + row.scenario);
  const ScenarioSlot& slot = scenarios_[it->second];
  DUALRAD_REQUIRE(row.trial < slot.trials,
                  "row trial out of range in " + row.scenario);
  DUALRAD_REQUIRE(
      row.seed ==
          campaign::trial_seed(config_.master_seed, row.scenario, row.trial),
      "row seed mismatch (different master seed?) in " + row.scenario);

  const std::size_t job = slot.first_job + row.trial;
  // Canonical untimed bytes: the same bytes the final export will contain,
  // and the byte-identity key of exactly-once commit.
  campaign::TrialRow canonical = row;
  canonical.wall_us = -1;
  const std::string bytes = campaign::trials_to_jsonl({canonical});

  if (!row_bytes_[job].empty()) {
    if (row_bytes_[job] == bytes) return Row::Duplicate;
    throw std::runtime_error(
        "dualrad: conflicting row for " + row.scenario + "#" +
        std::to_string(row.trial) +
        " — byte-identity contract violated (mismatched binary or grid?)");
  }

  Unit& unit = units_[unit_of_job_[job]];
  if (!from_journal) {
    journal_append_locked(canonical);
    unit.journal_seq = journal_written_;
  }
  rows_[job] = std::move(canonical);
  row_bytes_[job] = bytes;
  ++committed_;
  DUALRAD_CHECK(unit.remaining > 0, "unit received more rows than it has");
  --unit.remaining;
  return Row::Accepted;
}

void Coordinator::mark_done_locked(Unit& unit) {
  if (unit.state == UnitState::Done) return;
  if (unit.state == UnitState::Leased) {
    const auto elapsed = std::chrono::steady_clock::now() - unit.lease_start;
    unit_secs_.push_back(std::chrono::duration<double>(elapsed).count());
  }
  // A quarantined unit heals here too: its work arrived after all.
  unit.state = UnitState::Done;
  unit.worker.clear();
}

template <class JournalRow>
void Coordinator::journal_append_locked(const JournalRow& row) {
  if (!journal_live_) return;
  try {
    journal_.append(row);
    ++journal_written_;
  } catch (const std::exception& e) {
    journal_failed_locked(e.what());
  }
}

void Coordinator::journal_failed_locked(const std::string& error) {
  // Availability over durability: a failing journal device must not take a
  // running campaign down. Stop checkpointing (the on-disk prefix is still a
  // valid journal — whole-line appends tear at most the tail, and a later
  // --resume re-runs whatever wasn't durable), count it, and let rows and
  // seals succeed. The descriptor stays open until the next load: a seal may
  // be mid-fsync on it.
  journal_live_ = false;
  ++journal_errors_;
  if (journal_error_.empty()) journal_error_ = error;
}

Coordinator::Row Coordinator::add_row(const campaign::TrialRow& row) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return add_row_locked(row, /*from_journal=*/false);
}

Coordinator::Seal Coordinator::seal(std::string_view scenario,
                                    std::uint32_t trial_begin,
                                    std::uint32_t trial_end) {
  std::uint64_t seq = 0;
  std::uint64_t generation = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    DUALRAD_REQUIRE(loaded_, "seal before a campaign was loaded");
    generation = generation_;
    const auto it = scenario_index_.find(scenario);
    DUALRAD_REQUIRE(it != scenario_index_.end(),
                    "seal for unknown scenario: " + std::string(scenario));
    const ScenarioSlot& slot = scenarios_[it->second];
    DUALRAD_REQUIRE(trial_begin < trial_end && trial_end <= slot.trials,
                    "seal range out of bounds in " + std::string(scenario));
    for (std::uint32_t t = trial_begin; t < trial_end; ++t) {
      const std::size_t job = slot.first_job + t;
      if (row_bytes_[job].empty()) {
        ++row_resends_;
        return Seal::Resend;
      }
      seq = std::max(seq, units_[unit_of_job_[job]].journal_seq);
    }
  }
  sync_journal(seq);

  const std::lock_guard<std::mutex> lock(mutex_);
  // A submit may have replaced the (then settled) campaign during the fsync;
  // the rows were all there, so the ack stands, but there is nothing to mark.
  if (generation != generation_) return Seal::Ack;
  ++seals_;
  const ScenarioSlot& slot = scenarios_[scenario_index_.find(scenario)->second];
  // Done: every unit lying wholly inside the sealed range (normally exactly
  // the unit the worker leased). All its rows arrived and are durable.
  for (std::uint32_t t = trial_begin; t < trial_end;) {
    Unit& unit = units_[unit_of_job_[slot.first_job + t]];
    if (unit.trial_begin >= trial_begin && unit.trial_end <= trial_end) {
      mark_done_locked(unit);
    }
    t = unit.trial_end;
  }
  if (settled_locked()) changed_cv_.notify_all();
  return Seal::Ack;
}

void Coordinator::sync_journal(std::uint64_t seq) {
  const std::lock_guard<std::mutex> sync_lock(sync_mutex_);
  std::uint64_t covers = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!journal_live_ || journal_synced_ >= seq) return;
    // Everything written so far rides along on this fsync.
    covers = journal_written_;
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::string error;
  try {
    journal_.sync();
  } catch (const std::exception& e) {
    error = e.what();
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  const std::lock_guard<std::mutex> lock(mutex_);
  ++journal_syncs_;
  journal_sync_ns_ +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
  if (error.empty()) {
    journal_synced_ = std::max(journal_synced_, covers);
  } else if (journal_live_) {
    journal_failed_locked(error);
  }
}

void Coordinator::add_telemetry(const campaign::TelemetryRow& row) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!loaded_ || !config_.collect_telemetry) return;
  const auto it = scenario_index_.find(row.scenario);
  if (it == scenario_index_.end()) return;
  const ScenarioSlot& slot = scenarios_[it->second];
  if (row.trial >= slot.trials) return;
  const std::size_t job = slot.first_job + row.trial;
  // First report wins: a requeued unit's re-run may report again, and
  // telemetry (being nondeterministic) has no byte-identity to arbitrate.
  if (telemetry_present_[job]) return;
  telemetry_[job] = row;
  telemetry_present_[job] = 1;
  journal_append_locked(row);
}

bool Coordinator::done() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return settled_locked();
}

bool Coordinator::wait_done(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto is_done = [&] { return settled_locked(); };
  if (timeout.count() <= 0) {
    changed_cv_.wait(lock, is_done);
    return true;
  }
  return changed_cv_.wait_for(lock, timeout, is_done);
}

Coordinator::Status Coordinator::status() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Status s;
  s.loaded = loaded_;
  s.finished = settled_locked();
  s.scenarios = scenarios_.size();
  s.total_trials = rows_.size();
  s.committed = committed_;
  s.resumed = resumed_;
  for (const Unit& unit : units_) {
    switch (unit.state) {
      case UnitState::Pending: ++s.units_pending; break;
      case UnitState::Leased: ++s.units_leased; break;
      case UnitState::Done: ++s.units_done; break;
      case UnitState::Quarantined:
        ++s.units_quarantined;
        s.trials_quarantined += unit.remaining;
        break;
    }
  }
  s.workers = workers_seen_;
  s.lease_expiries = lease_expiries_;
  s.journal_errors = journal_errors_;
  s.journal_syncs = journal_syncs_;
  s.journal_sync_ms = static_cast<double>(journal_sync_ns_) / 1e6;
  s.seals = seals_;
  s.row_resends = row_resends_;
  s.lease_ms_effective =
      static_cast<std::size_t>(lease_window_secs_locked() * 1e3);
  return s;
}

std::vector<Coordinator::QuarantinedUnit> Coordinator::quarantined() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<QuarantinedUnit> out;
  for (const Unit& unit : units_) {
    if (unit.state != UnitState::Quarantined) continue;
    QuarantinedUnit q;
    q.scenario = scenarios_[unit.scenario].name;
    q.trial_begin = unit.trial_begin;
    q.trial_end = unit.trial_end;
    q.committed = (unit.trial_end - unit.trial_begin) - unit.remaining;
    q.expiries = unit.expiries;
    q.last_worker = unit.worker;
    out.push_back(std::move(q));
  }
  return out;
}

campaign::CampaignResult Coordinator::finalize() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  DUALRAD_REQUIRE(settled_locked(), "finalize before the campaign completed");
  campaign::CampaignResult result;
  campaign::CampaignGrid grid;
  grid.reserve(scenarios_.size());
  if (committed_ == rows_.size()) {
    result.trials = rows_;
    for (const ScenarioSlot& slot : scenarios_) {
      grid.emplace_back(slot.name, slot.trials);
    }
  } else {
    // Quarantined units leave holes: export the committed subset with a grid
    // whose per-scenario counts match, so summarize_trials' row-count
    // invariant holds. The quarantined() manifest names the missing ranges.
    result.trials.reserve(committed_);
    for (const ScenarioSlot& slot : scenarios_) {
      std::size_t present = 0;
      for (std::size_t t = 0; t < slot.trials; ++t) {
        const std::size_t job = slot.first_job + t;
        if (row_bytes_[job].empty()) continue;
        result.trials.push_back(rows_[job]);
        ++present;
      }
      if (present > 0) grid.emplace_back(slot.name, present);
    }
  }
  // Serve-mode rows are always untimed (the canonicalization in add_row), so
  // summaries carry no wall-time column — matching an untimed batch run.
  result.summaries = campaign::summarize_trials(result.trials, grid, false);
  if (config_.collect_telemetry) {
    result.telemetry.reserve(rows_.size());
    for (std::size_t job = 0; job < telemetry_.size(); ++job) {
      if (telemetry_present_[job]) result.telemetry.push_back(telemetry_[job]);
    }
  }
  return result;
}

}  // namespace dualrad::serve
