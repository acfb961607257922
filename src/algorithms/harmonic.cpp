#include "algorithms/harmonic.hpp"

#include <cmath>

#include "algorithms/broadcast_algorithm.hpp"
#include "core/rng.hpp"

namespace dualrad {

Round harmonic_T(NodeId n, const HarmonicOptions& options) {
  DUALRAD_REQUIRE(n >= 2, "harmonic broadcast needs n >= 2");
  if (options.T > 0) return options.T;
  DUALRAD_REQUIRE(options.eps > 0 && options.constant > 0,
                  "eps and constant must be positive");
  const double t = options.constant *
                   std::log(static_cast<double>(n) / options.eps);
  return std::max<Round>(1, static_cast<Round>(std::ceil(t)));
}

double harmonic_probability(Round t, Round token_round, Round T) {
  if (token_round == kNever || t <= token_round) return 0.0;
  const Round step = (t - token_round - 1) / T;
  return 1.0 / static_cast<double>(1 + step);
}

Round harmonic_round_bound(NodeId n, Round T) {
  double h = 0.0;
  // lint: fp-ok (serial loop in fixed 1..n order, never sharded)
  for (NodeId i = 1; i <= n; ++i) h += 1.0 / static_cast<double>(i);
  return static_cast<Round>(
      std::ceil(2.0 * static_cast<double>(n) * static_cast<double>(T) * h));
}

namespace {

class HarmonicProcess final : public TokenProcess {
 public:
  HarmonicProcess(ProcessId id, Round T, std::uint64_t seed)
      : TokenProcess(id), T_(T), rng_(seed) {}

  HarmonicProcess(const HarmonicProcess&) = default;

  [[nodiscard]] Action next_action(Round round) const override {
    const double p = harmonic_probability(round, token_round(), T_);
    if (p <= 0.0 || !rng_.bernoulli(p, round)) return Action::silent();
    return Action::transmit(Message{/*token=*/true, /*origin=*/id(),
                                    /*round_tag=*/round, /*payload=*/0});
  }

  /// Counter-based coins make the schedule a pure function of the round
  /// once the token round is fixed, so the exact next transmission round is
  /// computable by scanning the same coins the per-round poll would have
  /// drawn — expected O(1/p) draws, i.e. no more than polling, minus the
  /// engine overhead. Memoized: the token round is set at most once
  /// (TokenProcess), after which the schedule never changes, so a computed
  /// answer stays valid for every `from` up to it.
  [[nodiscard]] Round next_send_round(Round from) const override {
    if (!has_token()) return kNever;
    from = std::max(from, token_round() + 1);
    if (memo_next_ != kUnplanned && from >= memo_from_ && from <= memo_next_) {
      return memo_next_;
    }
    Round r = from;
    while (!rng_.bernoulli(harmonic_probability(r, token_round(), T_), r)) {
      ++r;
    }
    memo_from_ = from;
    memo_next_ = r;
    return r;
  }

  /// State is the token round only: silence is a no-op, and so is every
  /// reception once the token is held.
  [[nodiscard]] Hearing hearing() const override { return token_hearing(); }

  [[nodiscard]] std::unique_ptr<Process> clone() const override {
    return std::make_unique<HarmonicProcess>(*this);
  }

 private:
  static constexpr Round kUnplanned = -2;

  Round T_;
  CounterRng rng_;
  /// Next send >= memo_from_; valid while the token state is unchanged
  /// (which, after acquisition, is forever).
  mutable Round memo_from_ = 0;
  mutable Round memo_next_ = kUnplanned;
};

}  // namespace

ProcessFactory make_harmonic_factory(NodeId n, const HarmonicOptions& options) {
  const Round T = harmonic_T(n, options);
  return [T, n](ProcessId id, NodeId n_arg, std::uint64_t seed) {
    DUALRAD_REQUIRE(n_arg == n, "factory built for a different n");
    return std::make_unique<HarmonicProcess>(id, T, seed);
  };
}

}  // namespace dualrad
