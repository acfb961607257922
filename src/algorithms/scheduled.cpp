#include "algorithms/scheduled.hpp"

#include <algorithm>
#include <memory>

#include "algorithms/broadcast_algorithm.hpp"

namespace dualrad {
namespace {

class ScheduledProcess final : public TokenProcess {
 public:
  ScheduledProcess(ProcessId id, std::shared_ptr<const std::vector<ProcessId>> slots)
      : TokenProcess(id), slots_(std::move(slots)) {
    for (std::size_t s = 0; s < slots_->size(); ++s) {
      if ((*slots_)[s] == id) my_slots_.push_back(static_cast<Round>(s));
    }
  }
  ScheduledProcess(const ScheduledProcess&) = default;

  [[nodiscard]] Action next_action(Round round) const override {
    if (!has_token() || round <= token_round()) return Action::silent();
    const auto period = static_cast<Round>(slots_->size());
    if ((*slots_)[static_cast<std::size_t>((round - 1) % period)] != id()) {
      return Action::silent();
    }
    return Action::transmit(Message{/*token=*/true, /*origin=*/id(),
                                    /*round_tag=*/round, /*payload=*/0});
  }

  /// Exact hint: the first round >= `from` whose schedule slot names this
  /// process (my_slots_ holds its slot offsets within a period, ascending);
  /// kNever for processes the schedule omits entirely.
  [[nodiscard]] Round next_send_round(Round from) const override {
    if (!has_token() || my_slots_.empty()) return kNever;
    from = std::max(from, token_round() + 1);
    const auto period = static_cast<Round>(slots_->size());
    const Round offset = (from - 1) % period;
    Round cycle_start = from - 1 - offset;  // round before this period began
    auto it = std::lower_bound(my_slots_.begin(), my_slots_.end(), offset);
    if (it == my_slots_.end()) {
      cycle_start += period;
      it = my_slots_.begin();
    }
    return cycle_start + *it + 1;
  }

  /// State is the token round only: silence is a no-op, and so is every
  /// reception once the token is held.
  [[nodiscard]] Hearing hearing() const override { return token_hearing(); }

  [[nodiscard]] std::unique_ptr<Process> clone() const override {
    return std::make_unique<ScheduledProcess>(*this);
  }

 private:
  std::shared_ptr<const std::vector<ProcessId>> slots_;
  std::vector<Round> my_slots_;  ///< slot indices within a period, ascending
};

}  // namespace

ProcessFactory make_scheduled_factory(NodeId n, std::vector<ProcessId> slots) {
  DUALRAD_REQUIRE(!slots.empty(), "schedule must be non-empty");
  for (ProcessId p : slots) {
    DUALRAD_REQUIRE(p >= 0 && p < n, "schedule entry out of range");
  }
  auto shared = std::make_shared<const std::vector<ProcessId>>(std::move(slots));
  return [shared, n](ProcessId id, NodeId n_arg, std::uint64_t /*seed*/) {
    DUALRAD_REQUIRE(n_arg == n, "factory built for a different n");
    return std::make_unique<ScheduledProcess>(id, shared);
  };
}

}  // namespace dualrad
