#pragma once

#include <string>

#include "obs/telemetry.hpp"

/// \file perfetto_writer.hpp
/// Chrome trace-event JSON export of a RoundTelemetry — loadable in
/// ui.perfetto.dev (and chrome://tracing).
///
/// Layout: one complete ("ph":"X") slice per phase per ringed round on a
/// single engine track, laid out on a synthetic timeline built by summing
/// phase durations (the telemetry records durations, not absolute times, so
/// the trace shows each round's relative phase costs back to back), plus one
/// counter ("ph":"C") track per hot-path counter sampled at each round's
/// start. Rounds older than the telemetry window are folded into a single
/// leading "earlier-rounds" slice sized by the out-of-window share of the
/// total phase time, so the timeline still spans the whole execution.

namespace dualrad::obs {

/// Serialize `telemetry` as Chrome trace-event JSON ({"traceEvents":[...]}).
/// `process_name` labels the trace's process row (e.g. the scenario name;
/// must not contain '"' or '\\').
[[nodiscard]] std::string to_perfetto_json(
    const RoundTelemetry& telemetry,
    const std::string& process_name = "dualrad");

/// Write to_perfetto_json(telemetry) to `path` (truncating). Throws
/// std::runtime_error on I/O failure.
void write_perfetto_trace(const RoundTelemetry& telemetry,
                          const std::string& path,
                          const std::string& process_name = "dualrad");

}  // namespace dualrad::obs
