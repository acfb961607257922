#pragma once

#include <cstdint>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "algorithms/broadcast_algorithm.hpp"
#include "core/process.hpp"
#include "core/rng.hpp"
#include "core/trace.hpp"

/// Test helpers: tiny controllable processes, whole-trace decode/encode, and
/// the seeded mutator behind the parser fuzz tests.

namespace dualrad::testing {

/// Sends (token iff it has it) in exactly the given rounds, regardless of
/// state. Useful for steering the simulator from tests.
class ScriptedSender final : public TokenProcess {
 public:
  ScriptedSender(ProcessId id, std::set<Round> send_rounds)
      : TokenProcess(id), send_rounds_(std::move(send_rounds)) {}
  ScriptedSender(const ScriptedSender&) = default;

  [[nodiscard]] Action next_action(Round round) const override {
    if (!send_rounds_.contains(round)) return Action::silent();
    return Action::transmit(Message{has_token(), id(), round, 0});
  }

  [[nodiscard]] std::unique_ptr<Process> clone() const override {
    return std::make_unique<ScriptedSender>(*this);
  }

 private:
  std::set<Round> send_rounds_;
};

/// Never sends; records everything it receives.
class Recorder final : public TokenProcess {
 public:
  explicit Recorder(ProcessId id,
                    std::vector<std::pair<Round, Reception>>* sink = nullptr)
      : TokenProcess(id), sink_(sink) {}
  Recorder(const Recorder&) = default;

  [[nodiscard]] Action next_action(Round) const override {
    return Action::silent();
  }

  void on_receive(Round round, const Reception& reception) override {
    TokenProcess::on_receive(round, reception);
    if (sink_ != nullptr) sink_->emplace_back(round, reception);
  }

  [[nodiscard]] std::unique_ptr<Process> clone() const override {
    return std::make_unique<Recorder>(*this);
  }

 private:
  std::vector<std::pair<Round, Reception>>* sink_;
};

/// Factory over per-id scripts; ids missing from the table are Recorders.
inline ProcessFactory scripted_factory(
    std::vector<std::pair<ProcessId, std::set<Round>>> scripts,
    std::vector<std::pair<Round, Reception>>* recorder_sink = nullptr,
    ProcessId recorded_id = -1) {
  return [scripts = std::move(scripts), recorder_sink, recorded_id](
             ProcessId id, NodeId, std::uint64_t) -> std::unique_ptr<Process> {
    for (const auto& [pid, rounds] : scripts) {
      if (pid == id) return std::make_unique<ScriptedSender>(id, rounds);
    }
    return std::make_unique<Recorder>(
        id, id == recorded_id ? recorder_sink : nullptr);
  };
}

/// Every round of a recorded trace, decoded (n = the execution's node
/// count).
inline std::vector<RoundRecord> decode_all(const Trace& trace, NodeId n) {
  std::vector<RoundRecord> rounds(trace.compressed_rounds());
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    trace.decode_compressed(i, n, rounds[i]);
  }
  return rounds;
}

/// A recorded trace of `rounds` — how tamper tests write edited rounds back.
inline Trace encode_all(const std::vector<RoundRecord>& rounds) {
  Trace trace;
  trace.level = TraceLevel::Compressed;
  for (const RoundRecord& record : rounds) trace.append_compressed(record);
  return trace;
}

/// One to three seeded edits of `bytes` for parser fuzzing: flip a byte,
/// truncate, insert a byte, or splice in a span of `donor` (another valid
/// input, so structure from elsewhere in the format lands mid-record).
/// Inserted bytes come from `alphabet` — a format's separators, say — or
/// are arbitrary when it is empty. A fuzz loop asserts that every mutant
/// parses to something that round-trips or is rejected with
/// std::invalid_argument; the sanitizer jobs turn a crash or UB into a
/// failure.
template <class Bytes>
void mutate(Bytes& bytes, StreamRng& rng, const Bytes& donor,
            std::string_view alphabet = {}) {
  using Byte = typename Bytes::value_type;
  for (std::uint64_t edits = 1 + rng.below(3); edits > 0; --edits) {
    const auto at = static_cast<std::ptrdiff_t>(rng.below(bytes.size() + 1));
    switch (rng.below(4)) {
      case 0:
        if (at < static_cast<std::ptrdiff_t>(bytes.size())) {
          bytes[at] = static_cast<Byte>(bytes[at] ^ (1 + rng.below(255)));
        }
        break;
      case 1:
        bytes.resize(static_cast<std::size_t>(at));
        break;
      case 2: {
        auto byte = static_cast<Byte>(rng.below(256));
        if (!alphabet.empty()) {
          byte = static_cast<Byte>(alphabet[rng.below(alphabet.size())]);
        }
        bytes.insert(bytes.begin() + at, byte);
        break;
      }
      default: {
        if (donor.empty()) break;
        const auto from = static_cast<std::ptrdiff_t>(rng.below(donor.size()));
        const auto length = static_cast<std::ptrdiff_t>(
            1 + rng.below(donor.size() - static_cast<std::size_t>(from)));
        bytes.insert(bytes.begin() + at, donor.begin() + from,
                     donor.begin() + from + length);
        break;
      }
    }
  }
}

}  // namespace dualrad::testing
