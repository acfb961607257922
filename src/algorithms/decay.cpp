#include "algorithms/decay.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "algorithms/broadcast_algorithm.hpp"
#include "core/rng.hpp"

namespace dualrad {

Round decay_phase_length(NodeId n, const DecayOptions& options) {
  DUALRAD_REQUIRE(n >= 2, "decay needs n >= 2");
  if (options.phase_length > 0) return options.phase_length;
  return static_cast<Round>(
             std::ceil(std::log2(static_cast<double>(n)))) + 1;
}

namespace {

/// Exactly 2^{-offset} (the same double std::ldexp(1.0, -offset) yields)
/// without the libm call — this sits on the per-round hot path of every
/// informed node.
[[nodiscard]] inline double pow2_neg(int offset) {
  if (offset > 1022) return std::ldexp(1.0, -offset);  // denormal range
  return std::bit_cast<double>((1023ULL - static_cast<unsigned>(offset))
                               << 52);
}

class DecayProcess final : public TokenProcess {
 public:
  DecayProcess(ProcessId id, Round phase, Round active_phases,
               Round rebroadcast_period, std::uint64_t seed)
      : TokenProcess(id),
        phase_(phase),
        active_phases_(active_phases),
        rebroadcast_period_(rebroadcast_period),
        rng_(seed) {}
  DecayProcess(const DecayProcess&) = default;

  [[nodiscard]] Action next_action(Round round) const override {
    // The memo is a send round the scan already proved (live, coin up), so
    // the engine's usual poll — at exactly that round — needs no coin.
    if (memo_next_ == round) return transmit(round);
    if (!on_air(round)) return Action::silent();
    const auto offset = static_cast<int>((round - 1) % phase_);
    if (!rng_.bernoulli(pow2_neg(offset), round)) return Action::silent();
    return transmit(round);
  }

  void on_receive(Round round, const Reception& reception) override {
    const Round before = token_round();
    TokenProcess::on_receive(round, reception);
    if (token_round() != before) memo_next_ = kUnplanned;
  }

  /// Counter-based coins make the send schedule a pure function of the
  /// round, so the process can tell the engine its next transmission round
  /// exactly; quiet duty-cycle stretches are skipped arithmetically. The
  /// answer is memoized: the engine re-asks after every reception, but it
  /// only changes when the token state does (see on_receive).
  [[nodiscard]] Round next_send_round(Round from) const override {
    if (!has_token()) return kNever;
    from = std::max(from, token_round() + 1);
    if (memo_next_ != kUnplanned && from >= memo_from_ &&
        (memo_next_ == kNever || from <= memo_next_)) {
      return memo_next_;
    }
    memo_from_ = from;
    memo_next_ = scan_for_send(from);
    return memo_next_;
  }

  /// State is the token round only: silence is a no-op, and so is every
  /// reception once the token is held.
  [[nodiscard]] Hearing hearing() const override { return token_hearing(); }

  [[nodiscard]] std::unique_ptr<Process> clone() const override {
    return std::make_unique<DecayProcess>(*this);
  }

 private:
  static constexpr Round kUnplanned = -2;

  [[nodiscard]] Action transmit(Round round) const {
    return Action::transmit(Message{/*token=*/true, /*origin=*/id(),
                                    /*round_tag=*/round, /*payload=*/0});
  }

  /// Phase index since token receipt: 0 during the first phase-length
  /// stretch after the token arrived. Duty windows are counted relative to
  /// the token round, so nodes beacon staggered, while transmission
  /// probabilities stay globally aligned ((round - 1) % phase).
  [[nodiscard]] Round phase_index(Round round) const {
    return (round - token_round() - 1) / phase_;
  }

  /// True iff the decay schedule is live at `round`: always, in the
  /// historical unbounded mode; during the initial window, or every
  /// rebroadcast_period-th phase when maintenance is on, otherwise.
  [[nodiscard]] bool on_air(Round round) const {
    if (!has_token() || round <= token_round()) return false;
    if (active_phases_ <= 0) return true;
    const Round index = phase_index(round);
    if (index < active_phases_) return true;
    return rebroadcast_period_ > 0 && index % rebroadcast_period_ == 0;
  }

  /// First live round at or after `round`; kNever if the schedule is
  /// permanently over.
  [[nodiscard]] Round next_on_air(Round round) const {
    if (on_air(round)) return round;
    if (rebroadcast_period_ <= 0) return kNever;  // window over, no beacons
    const Round next_index =
        ((phase_index(round) + rebroadcast_period_ - 1) /
         rebroadcast_period_) *
        rebroadcast_period_;
    return token_round() + next_index * phase_ + 1;
  }

  /// Last round of the live stretch that contains the live round `r`: the
  /// initial window's end, the end of r's beacon phase, or never (the
  /// unbounded mode is one endless stretch).
  [[nodiscard]] Round live_end(Round r) const {
    if (active_phases_ <= 0) return std::numeric_limits<Round>::max();
    const Round index = phase_index(r);
    return token_round() +
           (index < active_phases_ ? active_phases_ : index + 1) * phase_;
  }

  /// Every live stretch spans a full phase and therefore contains an
  /// offset-0 round (p = 1), so the scan terminates quickly. Within a
  /// stretch the phase offset steps by one per round, so only the stretch
  /// boundaries pay for a division.
  [[nodiscard]] Round scan_for_send(Round from) const {
    for (Round r = next_on_air(from); r != kNever; r = next_on_air(r)) {
      const Round end = live_end(r);
      auto offset = static_cast<int>((r - 1) % phase_);
      for (; r <= end; ++r) {
        if (rng_.bernoulli(pow2_neg(offset), r)) return r;
        if (++offset == phase_) offset = 0;
      }
    }
    return kNever;
  }

  Round phase_;
  Round active_phases_;
  Round rebroadcast_period_;
  CounterRng rng_;
  /// Memoized scan_for_send result: the next send >= memo_from_, valid
  /// while the token state is unchanged (on_receive invalidates).
  mutable Round memo_from_ = 0;
  mutable Round memo_next_ = kUnplanned;
};

}  // namespace

ProcessFactory make_decay_factory(NodeId n, const DecayOptions& options) {
  const Round phase = decay_phase_length(n, options);
  const Round active_phases = options.active_phases;
  const Round rebroadcast_period = options.rebroadcast_period;
  return [phase, active_phases, rebroadcast_period, n](
             ProcessId id, NodeId n_arg, std::uint64_t seed) {
    DUALRAD_REQUIRE(n_arg == n, "factory built for a different n");
    return std::make_unique<DecayProcess>(id, phase, active_phases,
                                          rebroadcast_period, seed);
  };
}

}  // namespace dualrad
