#include "serve/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <string_view>
#include <utility>

#include "campaign/export.hpp"
#include "serve/faultline.hpp"
#include "serve/wire.hpp"

namespace dualrad::serve {

namespace {

/// strerror() is not thread-safe (concurrency-mt-unsafe); the error_code
/// formatter is, and journal errors can surface from any worker thread.
[[nodiscard]] std::string errno_message() {
  return std::error_code(errno, std::generic_category()).message();
}

[[nodiscard]] std::string crc_hex(std::uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", crc);
  return buf;
}

/// Parse "xxxxxxxx <json>"; returns the json part or nullopt if the line is
/// structurally broken or fails its CRC.
[[nodiscard]] std::optional<std::string_view> check_line(
    std::string_view line) {
  if (line.size() < 10 || line[8] != ' ') return std::nullopt;
  for (int i = 0; i < 8; ++i) {
    const char c = line[static_cast<std::size_t>(i)];
    const bool hex =
        (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!hex) return std::nullopt;
  }
  const std::string_view json = line.substr(9);
  if (crc_hex(crc32(json)) != line.substr(0, 8)) return std::nullopt;
  return json;
}

}  // namespace

std::string journal_line(const campaign::TrialRow& row) {
  // Canonical untimed row: wall time is outside the determinism contract,
  // so journals stay byte-comparable across reruns and machines.
  std::string json = campaign::trials_to_jsonl({row});
  DUALRAD_CHECK(!json.empty() && json.back() == '\n',
                "trials_to_jsonl emitted no line");
  json.pop_back();
  return crc_hex(crc32(json)) + " " + json + "\n";
}

std::string journal_line(const campaign::TelemetryRow& row) {
  std::string json = campaign::telemetry_to_jsonl({row});
  DUALRAD_CHECK(!json.empty() && json.back() == '\n',
                "telemetry_to_jsonl emitted no line");
  json.pop_back();
  // The "t " marker distinguishes telemetry from trial rows; it is part of
  // the CRC-covered payload so a marker torn off cannot misclassify a line.
  const std::string payload = "t " + json;
  return crc_hex(crc32(payload)) + " " + payload + "\n";
}

JournalLoad parse_journal(const std::string& text) {
  JournalLoad load;
  load.valid_bytes = text.size();
  std::map<std::pair<std::string, std::uint32_t>, std::string> seen;
  std::set<std::pair<std::string, std::uint32_t>> telemetry_seen;
  std::size_t begin = 0;
  while (begin < text.size()) {
    const std::size_t nl = text.find('\n', begin);
    const bool complete = nl != std::string::npos;
    const std::string_view line(text.data() + begin,
                                (complete ? nl : text.size()) - begin);
    const std::size_t next = complete ? nl + 1 : text.size();
    const bool is_last = next >= text.size();
    if (line.empty()) {
      begin = next;
      continue;
    }
    const std::optional<std::string_view> payload = check_line(line);
    if (!payload.has_value() || !complete) {
      // Only the final line may be torn (whole-line O_APPEND writes); any
      // earlier damage means the file itself is corrupt.
      if (is_last) {
        ++load.dropped_torn_tail;
        load.valid_bytes = begin;
        break;
      }
      throw std::invalid_argument(
          "dualrad: corrupt journal line (not at tail): " + std::string(line));
    }
    if (payload->rfind("t ", 0) == 0) {
      // Telemetry line. Nondeterministic by nature (wall times), so replays
      // dedupe first-wins and never conflict.
      const std::string_view json = payload->substr(2);
      std::vector<campaign::TelemetryRow> parsed =
          campaign::telemetry_from_jsonl(std::string(json) + "\n");
      DUALRAD_REQUIRE(parsed.size() == 1,
                      "telemetry journal line is not one row");
      campaign::TelemetryRow row = std::move(parsed.front());
      if (telemetry_seen.emplace(row.scenario, row.trial).second) {
        load.telemetry.push_back(std::move(row));
      }
      begin = next;
      continue;
    }
    const std::string_view json = *payload;
    std::vector<campaign::TrialRow> parsed =
        campaign::trials_from_jsonl(std::string(json) + "\n");
    DUALRAD_REQUIRE(parsed.size() == 1, "journal line is not one row");
    campaign::TrialRow row = std::move(parsed.front());
    const auto key = std::make_pair(row.scenario, row.trial);
    const auto it = seen.find(key);
    if (it != seen.end()) {
      // At-least-once journaling: byte-identical replays dedupe, conflicting
      // rows for one trial violate the determinism contract.
      if (it->second == json) {
        ++load.duplicates;
      } else {
        throw std::invalid_argument(
            "dualrad: conflicting journal rows for " + row.scenario + "#" +
            std::to_string(row.trial));
      }
    } else {
      seen.emplace(key, std::string(json));
      load.rows.push_back(std::move(row));
    }
    begin = next;
  }
  return load;
}

JournalLoad load_journal(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("dualrad: cannot open journal " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_journal(text.str());
}

void truncate_torn_tail(const std::string& path, const JournalLoad& load) {
  if (load.dropped_torn_tail == 0) return;
  if (::truncate(path.c_str(), static_cast<off_t>(load.valid_bytes)) != 0) {
    throw std::runtime_error("dualrad: cannot truncate torn journal tail in " +
                             path + ": " + errno_message());
  }
}

void JournalWriter::open(const std::string& path, bool fsync_each) {
  close();
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("dualrad: cannot open journal " + path + ": " +
                             errno_message());
  }
  fsync_each_ = fsync_each;
  sync_error_pending_.store(false, std::memory_order_relaxed);
}

void JournalWriter::append(const campaign::TrialRow& row) {
  append_line(journal_line(row));
}

void JournalWriter::append(const campaign::TelemetryRow& row) {
  append_line(journal_line(row));
}

void JournalWriter::append_line(const std::string& line) {
  DUALRAD_CHECK(fd_ >= 0, "journal writer not open");

  const auto write_all = [&](const char* data, std::size_t size) {
    std::size_t written = 0;
    while (written < size) {
      const ssize_t n = ::write(fd_, data + written, size - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(
            std::string("dualrad: journal write failed: ") + errno_message());
      }
      written += static_cast<std::size_t>(n);
    }
  };

  if (FaultInjector* injector = fault_injector()) {
    switch (injector->next_journal()) {
      case JournalFault::None:
        break;
      case JournalFault::TornWrite:
        // Half the line reaches disk, then the device errors: the classic
        // torn tail. The loader recovers the valid prefix (valid_bytes) and
        // truncate_torn_tail cuts the fragment on resume.
        write_all(line.data(), line.size() / 2);
        throw std::runtime_error(
            "dualrad: journal append failed mid-line (injected EIO; torn "
            "tail left on disk)");
      case JournalFault::FsyncEio:
        // The line is written but its durability is unknown: the commit must
        // still fail loudly (a crash now could lose it) — here, or at the
        // next sync() when appends do not fsync.
        write_all(line.data(), line.size());
        if (!fsync_each_) {
          sync_error_pending_.store(true, std::memory_order_relaxed);
          return;
        }
        throw std::runtime_error(
            "dualrad: journal fsync failed (injected EIO; line durability "
            "unknown)");
      case JournalFault::AppendEnospc:
        throw std::runtime_error(
            "dualrad: journal append failed (injected ENOSPC; nothing "
            "written)");
    }
  }

  write_all(line.data(), line.size());
  if (fsync_each_ && ::fsync(fd_) != 0) {
    // An fsync error means the kernel may have dropped this (or an earlier)
    // write: the only honest outcome is a loud failure. The on-disk prefix
    // is still a valid journal — whole-line appends tear at most the tail.
    throw std::runtime_error(std::string("dualrad: journal fsync failed: ") +
                             errno_message());
  }
}

void JournalWriter::sync() {
  DUALRAD_CHECK(fd_ >= 0, "journal writer not open");
  if (sync_error_pending_.exchange(false, std::memory_order_relaxed)) {
    throw std::runtime_error(
        "dualrad: journal fsync failed (injected EIO; line durability "
        "unknown)");
  }
  if (::fsync(fd_) != 0) {
    throw std::runtime_error(std::string("dualrad: journal fsync failed: ") +
                             errno_message());
  }
}

void JournalWriter::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace dualrad::serve
