#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include "campaign/engine.hpp"

/// \file checkpoint.hpp
/// The append-only campaign journal behind checkpoint/resume.
///
/// One line per committed trial:
///
///   xxxxxxxx {"scenario":"...","trial":0,...}\n
///
/// and (since telemetry journaling) one optional line per telemetry row,
/// marked with a "t " payload prefix:
///
///   xxxxxxxx t {"scenario":"...","trial":0,"wall_us":...}\n
///
/// where xxxxxxxx is the lower-case hex CRC-32 of everything after the
/// separating space (for telemetry lines that includes the "t " marker). The
/// trial JSON is the canonical untimed trial row (campaign/export.hpp
/// trials_to_jsonl), so a journal is itself a readable JSONL file modulo the
/// CRC column, and the byte equality used for exactly-once dedup is the same
/// byte equality the export contract pins. Journals without telemetry lines
/// are exactly the pre-telemetry format, so old journals load unchanged.
///
/// Torn-write tolerance: a crash can tear at most the FINAL line (the writer
/// appends whole lines and fsyncs). load_journal() therefore drops a trailing
/// line that is incomplete or fails its CRC — reporting it — but treats any
/// earlier damage as corruption and throws. Re-journaled duplicates (the
/// at-least-once window between commit and crash) are byte-compared: equal
/// rows dedupe silently, conflicting rows for the same (scenario, trial)
/// throw. Telemetry rows carry wall times and are inherently
/// nondeterministic, so they dedupe first-wins and never conflict.

namespace dualrad::serve {

struct JournalLoad {
  /// Deduplicated committed rows, in journal (= commit) order.
  std::vector<campaign::TrialRow> rows;
  /// Journaled telemetry rows, deduplicated first-wins per (scenario, trial),
  /// in journal order.
  std::vector<campaign::TelemetryRow> telemetry;
  /// 1 if a torn trailing line was dropped, else 0.
  std::size_t dropped_torn_tail = 0;
  /// Byte-identical duplicate lines skipped.
  std::size_t duplicates = 0;
  /// Length of the valid prefix (everything before a torn tail). A resuming
  /// writer MUST truncate the file here first (truncate_torn_tail), or its
  /// first append would concatenate onto the torn fragment and corrupt it.
  std::size_t valid_bytes = 0;
};

/// Parse journal text. Throws std::invalid_argument on mid-file corruption
/// or conflicting rows for one (scenario, trial).
[[nodiscard]] JournalLoad parse_journal(const std::string& text);

/// Read and parse a journal file. Throws std::runtime_error if unreadable.
[[nodiscard]] JournalLoad load_journal(const std::string& path);

/// Cut a torn trailing line off the file (no-op when `load` reports none),
/// so subsequent appends start on a fresh line. Throws on I/O failure.
void truncate_torn_tail(const std::string& path, const JournalLoad& load);

/// Serialize one row as a journal line (CRC column, trailing newline).
[[nodiscard]] std::string journal_line(const campaign::TrialRow& row);

/// Serialize one telemetry row as a journal line ("t " marker, CRC column,
/// trailing newline).
[[nodiscard]] std::string journal_line(const campaign::TelemetryRow& row);

/// Append-only journal writer. Lines are written with a single write(2) to
/// an O_APPEND descriptor, so concurrent writers cannot interleave within a
/// line and a crash tears at most the tail. With `fsync_each` every append
/// is fsynced; without it the owner batches durability through sync() (the
/// serve coordinator fsyncs once per sealed unit).
///
/// Failure contract: append() and sync() throw std::runtime_error on any
/// write or fsync error — a commit whose durability is unknown must fail
/// loudly, not limp on. Because lines are whole-line appends, a failed append
/// leaves the journal's valid prefix intact (at worst a torn tail, which the
/// loader already recovers via valid_bytes). This is also the checkpoint
/// fault-injection seam: an installed faultline::FaultInjector can simulate
/// torn writes, fsync EIO, and ENOSPC here. An injected fsync EIO on an
/// append that does not fsync is deferred to the next sync(), the way the
/// kernel reports a failed writeback at the next fsync.
///
/// sync() may run concurrently with append() (it only reads the descriptor);
/// open() and close() must not race either.
class JournalWriter {
 public:
  JournalWriter() = default;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter() { close(); }

  /// Open (creating or appending). Throws std::runtime_error on failure.
  /// `fsync_each` fsyncs every append; pass false to batch durability
  /// through sync().
  void open(const std::string& path, bool fsync_each = true);

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }

  /// Append one committed row. Throws std::runtime_error on I/O failure.
  void append(const campaign::TrialRow& row);

  /// Append one telemetry row. Throws std::runtime_error on I/O failure.
  void append(const campaign::TelemetryRow& row);

  /// fsync every line appended so far. Throws std::runtime_error on failure
  /// (including a deferred injected fsync EIO).
  void sync();

  void close();

 private:
  void append_line(const std::string& line);

  int fd_ = -1;
  bool fsync_each_ = true;
  std::atomic<bool> sync_error_pending_{false};
};

}  // namespace dualrad::serve
