#include "obs/perfetto_writer.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace dualrad::obs {

namespace {

constexpr int kPid = 1;          // one trace process: the engine
constexpr int kPhaseTid = 1;     // the phase-slice track

void append(std::string& out, const char* fmt, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, fmt, args...);
  out += buf;
}

/// Whole-microsecond timestamps keep the JSON exact (Chrome's "ts" is in us;
/// fractional values round-trip poorly through viewers). Durations below
/// 1 us are clamped up so every slice stays visible and the cursor advances.
std::uint64_t to_us(std::uint64_t ns) { return ns < 1000 ? 1 : ns / 1000; }

}  // namespace

std::string to_perfetto_json(const RoundTelemetry& telemetry,
                             const std::string& process_name) {
  DUALRAD_REQUIRE(process_name.find('"') == std::string::npos &&
                      process_name.find('\\') == std::string::npos,
                  "process name must not need JSON escaping");
  std::string out = "{\"traceEvents\":[\n";
  append(out,
         "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
         "\"args\":{\"name\":\"%s\"}},\n",
         kPid, process_name.c_str());
  append(out,
         "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
         "\"args\":{\"name\":\"engine rounds\"}},\n",
         kPid, kPhaseTid);

  const std::vector<RoundSample> samples = telemetry.window_samples();

  // Synthetic timeline cursor. Rounds that aged out of the window are
  // represented by one aggregate slice so the visible tail sits at its true
  // offset into the execution's total phase time.
  std::uint64_t cursor_us = 0;
  std::uint64_t windowed_ns = 0;
  for (const RoundSample& s : samples) {
    for (const std::uint64_t ns : s.phase_ns) windowed_ns += ns;
  }
  const std::uint64_t total = telemetry.total_ns();
  if (total > windowed_ns && !samples.empty()) {
    const std::uint64_t folded_us = to_us(total - windowed_ns);
    append(out,
           "{\"name\":\"earlier-rounds\",\"ph\":\"X\",\"ts\":%" PRIu64
           ",\"dur\":%" PRIu64 ",\"pid\":%d,\"tid\":%d,"
           "\"args\":{\"rounds\":%lld}},\n",
           cursor_us, folded_us, kPid, kPhaseTid,
           static_cast<long long>(samples.front().round - 1));
    cursor_us += folded_us;
  }

  bool first = true;
  const auto comma = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  first = true;
  for (const RoundSample& s : samples) {
    // Counter tracks sample at the round's start timestamp.
    comma();
    append(out,
           "{\"name\":\"senders\",\"ph\":\"C\",\"ts\":%" PRIu64
           ",\"pid\":%d,\"args\":{\"polled\":%" PRIu64 ",\"senders\":%" PRIu64
           "}}",
           cursor_us, kPid, s.counters.polled, s.counters.senders);
    comma();
    append(out,
           "{\"name\":\"deliveries\",\"ph\":\"C\",\"ts\":%" PRIu64
           ",\"pid\":%d,\"args\":{\"deliveries\":%" PRIu64
           ",\"collisions\":%" PRIu64 ",\"reach_appends\":%" PRIu64 "}}",
           cursor_us, kPid, s.counters.deliveries, s.counters.collisions,
           s.counters.reach_appends);
    comma();
    append(out,
           "{\"name\":\"coverage\",\"ph\":\"C\",\"ts\":%" PRIu64
           ",\"pid\":%d,\"args\":{\"newly_covered\":%" PRIu64
           ",\"replans\":%" PRIu64 "}}",
           cursor_us, kPid, s.counters.newly_covered, s.counters.replans);
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      const std::uint64_t ns = s.phase_ns[p];
      if (ns == 0) continue;  // a phase that did no timed work; skip noise
      const std::uint64_t dur = to_us(ns);
      comma();
      append(out,
             "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%" PRIu64
             ",\"dur\":%" PRIu64 ",\"pid\":%d,\"tid\":%d,"
             "\"args\":{\"round\":%lld}}",
             phase_name(static_cast<Phase>(p)), cursor_us, dur, kPid,
             kPhaseTid, static_cast<long long>(s.round));
      cursor_us += dur;
    }
  }

  out += "\n]}\n";
  return out;
}

void write_perfetto_trace(const RoundTelemetry& telemetry,
                          const std::string& path,
                          const std::string& process_name) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("dualrad: cannot open " + path);
  const std::string json = to_perfetto_json(telemetry, process_name);
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  if (!out) throw std::runtime_error("dualrad: write failed: " + path);
}

}  // namespace dualrad::obs
