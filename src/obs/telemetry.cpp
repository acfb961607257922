#include "obs/telemetry.hpp"

#include <algorithm>

namespace dualrad::obs {

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::Poll: return "poll";
    case Phase::Adversary: return "adversary";
    case Phase::Propagate: return "propagate";
    case Phase::Deliver: return "deliver";
  }
  return "phase?";
}

RoundTelemetry::RoundTelemetry(std::size_t window) : window_(window) {
  DUALRAD_REQUIRE(window_ >= 1, "telemetry window must be positive");
  ring_.resize(window_);
}

void RoundTelemetry::begin_execution(NodeId nodes) {
  nodes_ = nodes;
  rounds_recorded_ = 0;
  current_ = RoundSample{};
  for (RoundSample& s : ring_) s = RoundSample{};
  totals_ = RoundCounters{};
  total_phase_ns_.fill(0);
  max_round_deliveries_ = 0;
  max_round_deliveries_round_ = 0;
}

void RoundTelemetry::end_execution() {}

void RoundTelemetry::begin_round(Round round) {
  current_ = RoundSample{};
  current_.round = round;
}

void RoundTelemetry::end_round() {
  totals_.add(current_.counters);
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    total_phase_ns_[p] += current_.phase_ns[p];
  }
  if (current_.counters.deliveries > max_round_deliveries_) {
    max_round_deliveries_ = current_.counters.deliveries;
    max_round_deliveries_round_ = current_.round;
  }
  rounds_recorded_ = current_.round;
  ring_[static_cast<std::size_t>(current_.round - 1) % window_] = current_;
}

std::uint64_t RoundTelemetry::total_ns() const {
  std::uint64_t total = 0;
  for (const std::uint64_t ns : total_phase_ns_) total += ns;
  return total;
}

const RoundSample& RoundTelemetry::sample_at(Round r) const {
  DUALRAD_REQUIRE(in_window(r), "round not in the telemetry window");
  return ring_[static_cast<std::size_t>(r - 1) % window_];
}

std::vector<RoundSample> RoundTelemetry::window_samples() const {
  std::vector<RoundSample> out;
  if (rounds_recorded_ == 0) return out;
  const Round first = std::max<Round>(
      1, rounds_recorded_ - static_cast<Round>(window_) + 1);
  out.reserve(static_cast<std::size_t>(rounds_recorded_ - first + 1));
  for (Round r = first; r <= rounds_recorded_; ++r) {
    out.push_back(sample_at(r));
  }
  return out;
}

}  // namespace dualrad::obs
