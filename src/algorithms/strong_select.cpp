#include "algorithms/strong_select.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "algorithms/broadcast_algorithm.hpp"
#include "selectors/round_robin_family.hpp"

namespace dualrad {
namespace {

/// floor(log2(x)) for x >= 1.
int ilog2(Round x) {
  DUALRAD_CHECK(x >= 1, "ilog2 domain");
  return 63 - std::countl_zero(static_cast<std::uint64_t>(x));
}

}  // namespace

std::shared_ptr<const StrongSelectSchedule> StrongSelectSchedule::make(
    NodeId n, const SsfProvider& provider) {
  DUALRAD_REQUIRE(n >= 2, "strong select needs n >= 2");
  auto schedule = std::shared_ptr<StrongSelectSchedule>(
      new StrongSelectSchedule());
  schedule->n_ = n;
  // s_max = log2(sqrt(n / log n)), at least 1. The paper assumes
  // sqrt(n / log n) is a power of two; we take the floor for general n.
  const double nn = static_cast<double>(n);
  const double target = std::sqrt(nn / std::max(1.0, std::log2(nn)));
  schedule->s_max_ = std::max(1, static_cast<int>(std::floor(std::log2(target))));
  schedule->epoch_len_ = (Round{1} << schedule->s_max_) - 1;
  for (int s = 1; s < schedule->s_max_; ++s) {
    const auto k = static_cast<NodeId>(
        std::min<Round>(Round{1} << s, static_cast<Round>(n)));
    schedule->families_.push_back(provider(n, k));
    DUALRAD_CHECK(schedule->families_.back().universe() == n,
                  "provider returned family over wrong universe");
    DUALRAD_CHECK(schedule->families_.back().size() >= 1,
                  "provider returned empty family");
  }
  // F_{s_max} is the round-robin sequence, an (n,n)-SSF (Section 5).
  schedule->families_.push_back(round_robin_family(n));
  return schedule;
}

const SsfFamily& StrongSelectSchedule::family(int s) const {
  DUALRAD_REQUIRE(s >= 1 && s <= s_max_, "family index out of range");
  return families_[static_cast<std::size_t>(s - 1)];
}

Round StrongSelectSchedule::ell(int s) const {
  return static_cast<Round>(family(s).size());
}

Round StrongSelectSchedule::iteration_rounds(int s) const {
  // ell_s sets, 2^{s-1} per epoch, epoch_len_ rounds per epoch. An iteration
  // spans ceil(ell_s / 2^{s-1}) epochs of slots; expressed in rounds from a
  // slot-aligned start it is at most that many epochs.
  const Round per_epoch = Round{1} << (s - 1);
  const Round epochs = (ell(s) + per_epoch - 1) / per_epoch;
  return epochs * epoch_len_;
}

StrongSelectSchedule::Slot StrongSelectSchedule::slot_of_round(Round r) const {
  DUALRAD_REQUIRE(r >= 1, "rounds are 1-based");
  const Round epoch = (r - 1) / epoch_len_;          // 0-based
  const Round pos = (r - 1) % epoch_len_ + 1;        // in [1, epoch_len]
  const int s = ilog2(pos) + 1;                      // family for this round
  const Round within = pos - (Round{1} << (s - 1));  // in [0, 2^{s-1})
  return Slot{s, epoch * (Round{1} << (s - 1)) + within};
}

Round StrongSelectSchedule::slots_before(Round t, int s) const {
  DUALRAD_REQUIRE(t >= 0, "t must be non-negative");
  DUALRAD_REQUIRE(s >= 1 && s <= s_max_, "family index out of range");
  const Round full_epochs = t / epoch_len_;
  const Round rem = t % epoch_len_;  // rounds 1..rem of the partial epoch
  const Round lo = Round{1} << (s - 1);
  const Round hi = (Round{1} << s) - 1;  // family-s rounds are [lo, hi]
  const Round partial = std::max<Round>(0, std::min(rem, hi) - lo + 1);
  return full_epochs * lo + partial;
}

Round StrongSelectSchedule::participation_start(Round token_round,
                                                int s) const {
  const Round next = slots_before(token_round, s);
  const Round l = ell(s);
  return ((next + l - 1) / l) * l;
}

Round StrongSelectSchedule::next_family_send(int s, ProcessId id,
                                             Round token_round, bool forever,
                                             Round from) const {
  DUALRAD_REQUIRE(from >= 1, "rounds are 1-based");
  const std::vector<std::uint32_t>& mine = family(s).sets_containing(id);
  if (mine.empty()) return kNever;
  const Round l = ell(s);
  const Round start = participation_start(token_round, s);
  // slots_before(from - 1, s) is the 0-based index of the first family-s
  // slot at a round >= from; participation clamps it to the window start.
  Round j = std::max(slots_before(from - 1, s), start);
  // Smallest j' >= j whose set (j' mod l) contains id, via the family's
  // sorted membership index — wrap to the next cycle if needed.
  const Round offset = j % l;
  const auto it = std::lower_bound(mine.begin(), mine.end(),
                                   static_cast<std::uint32_t>(offset));
  const Round target = it != mine.end()
                           ? j - offset + static_cast<Round>(*it)
                           : j - offset + l + static_cast<Round>(mine.front());
  if (!forever && target >= start + l) return kNever;  // window exhausted
  // Map the slot index back to its round: slot j of family s lives in epoch
  // j / 2^{s-1} at in-epoch position 2^{s-1} + (j mod 2^{s-1}).
  const Round per_epoch = Round{1} << (s - 1);
  return (target / per_epoch) * epoch_len_ + per_epoch + target % per_epoch;
}

Round StrongSelectSchedule::done_round_bound(Round token_round) const {
  Round done = token_round;
  for (int s = 1; s <= s_max_; ++s) {
    // Participation ends by: wait for alignment (< one iteration) plus one
    // full iteration, measured in rounds.
    done = std::max(done, token_round + 2 * iteration_rounds(s) + epoch_len_);
  }
  return done;
}

namespace {

class StrongSelectProcess final : public TokenProcess {
 public:
  StrongSelectProcess(ProcessId id,
                      std::shared_ptr<const StrongSelectSchedule> schedule,
                      bool participate_forever)
      : TokenProcess(id),
        schedule_(std::move(schedule)),
        forever_(participate_forever) {}

  StrongSelectProcess(const StrongSelectProcess&) = default;

  [[nodiscard]] Action next_action(Round round) const override {
    if (!has_token() || round <= token_round()) return Action::silent();
    const auto slot = schedule_->slot_of_round(round);
    const Round start = schedule_->participation_start(token_round(), slot.s);
    if (slot.index < start) return Action::silent();
    if (!forever_ && slot.index >= start + schedule_->ell(slot.s)) {
      return Action::silent();
    }
    const auto set_index =
        static_cast<std::size_t>(slot.index % schedule_->ell(slot.s));
    if (!schedule_->family(slot.s).contains(set_index, id())) {
      return Action::silent();
    }
    return Action::transmit(Message{/*token=*/true, /*origin=*/id(),
                                    /*round_tag=*/round, /*payload=*/0});
  }

  /// Exact hint: the minimum over families of the closed-form epoch walk
  /// (next_family_send). No coin, no per-round scan — the whole schedule is
  /// a pure function of (id, token round), so the engine's calendar can
  /// jump straight to the next slot whose SSF set contains this id.
  [[nodiscard]] Round next_send_round(Round from) const override {
    if (!has_token()) return kNever;
    from = std::max(from, token_round() + 1);
    Round best = kNever;
    for (int s = 1; s <= schedule_->s_max(); ++s) {
      const Round r =
          schedule_->next_family_send(s, id(), token_round(), forever_, from);
      if (r != kNever && (best == kNever || r < best)) best = r;
    }
    return best;
  }

  /// State is the token round only: silence is a no-op, and so is every
  /// reception once the token is held.
  [[nodiscard]] Hearing hearing() const override { return token_hearing(); }

  [[nodiscard]] std::unique_ptr<Process> clone() const override {
    return std::make_unique<StrongSelectProcess>(*this);
  }

 private:
  std::shared_ptr<const StrongSelectSchedule> schedule_;
  bool forever_;
};

}  // namespace

std::shared_ptr<const StrongSelectSchedule> make_strong_select_schedule(
    NodeId n, const StrongSelectOptions& options) {
  return StrongSelectSchedule::make(n, options.provider);
}

ProcessFactory make_strong_select_factory(NodeId n,
                                          const StrongSelectOptions& options) {
  auto schedule = make_strong_select_schedule(n, options);
  const bool forever = options.participate_forever;
  return [schedule, forever, n](ProcessId id, NodeId n_arg,
                                std::uint64_t /*seed*/) {
    DUALRAD_REQUIRE(n_arg == n, "factory built for a different n");
    return std::make_unique<StrongSelectProcess>(id, schedule, forever);
  };
}

}  // namespace dualrad
