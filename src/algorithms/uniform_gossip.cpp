#include "algorithms/uniform_gossip.hpp"

#include <algorithm>

#include "algorithms/broadcast_algorithm.hpp"
#include "core/rng.hpp"

namespace dualrad {

double uniform_gossip_p(NodeId n, const UniformGossipOptions& options) {
  DUALRAD_REQUIRE(n >= 2, "uniform gossip needs n >= 2");
  if (options.p > 0) {
    DUALRAD_REQUIRE(options.p <= 1.0, "p must be a probability");
    return options.p;
  }
  return 1.0 / static_cast<double>(n - 1);
}

namespace {

class UniformGossipProcess final : public TokenProcess {
 public:
  UniformGossipProcess(ProcessId id, double p, std::uint64_t seed)
      : TokenProcess(id), p_(p), rng_(seed) {}
  UniformGossipProcess(const UniformGossipProcess&) = default;

  [[nodiscard]] Action next_action(Round round) const override {
    if (!has_token() || round <= token_round()) return Action::silent();
    if (!rng_.bernoulli(p_, round)) return Action::silent();
    return Action::transmit(Message{/*token=*/true, /*origin=*/id(),
                                    /*round_tag=*/round, /*payload=*/0});
  }

  /// Counter-based coins make the flat p-schedule a pure function of the
  /// round once the token round is fixed, so the next transmission round
  /// is computable by scanning the same coins the per-round poll would
  /// have drawn (same pattern as harmonic). The scan is *capped*: with a
  /// tiny p (say 1e-9, or 1/(n-1) at n = 10^6 against a short round cap)
  /// an exact answer could cost arbitrarily more than the execution it
  /// schedules, so after kScanCap silent coins the hint conservatively
  /// returns the first unscanned round — over-promising is legal, the
  /// engine just re-asks there and the scan resumes chunk by chunk.
  /// Memoized on exact hits: the token round is set at most once
  /// (TokenProcess), after which the schedule never changes, so a computed
  /// answer stays valid for every `from` up to it.
  [[nodiscard]] Round next_send_round(Round from) const override {
    if (!has_token()) return kNever;
    from = std::max(from, token_round() + 1);
    if (memo_next_ != kUnplanned && from >= memo_from_ && from <= memo_next_) {
      return memo_next_;
    }
    Round r = from;
    while (!rng_.bernoulli(p_, r)) {
      if (++r - from >= kScanCap) return r;  // all of [from, r) is silent
    }
    memo_from_ = from;
    memo_next_ = r;
    return r;
  }

  /// State is the token round only: silence is a no-op, and so is every
  /// reception once the token is held.
  [[nodiscard]] Hearing hearing() const override { return token_hearing(); }

  [[nodiscard]] std::unique_ptr<Process> clone() const override {
    return std::make_unique<UniformGossipProcess>(*this);
  }

 private:
  static constexpr Round kUnplanned = -2;
  /// Coins scanned per hint call before giving a conservative answer. At
  /// the default p = 1/(n-1) this resolves the expected gap exactly for
  /// n <= ~4k and costs one re-ask per 4096 rounds beyond that.
  static constexpr Round kScanCap = 4096;

  double p_;
  CounterRng rng_;
  /// Next send >= memo_from_; valid while the token state is unchanged
  /// (which, after acquisition, is forever).
  mutable Round memo_from_ = 0;
  mutable Round memo_next_ = kUnplanned;
};

}  // namespace

ProcessFactory make_uniform_gossip_factory(NodeId n,
                                           const UniformGossipOptions& options) {
  const double p = uniform_gossip_p(n, options);
  return [p, n](ProcessId id, NodeId n_arg, std::uint64_t seed) {
    DUALRAD_REQUIRE(n_arg == n, "factory built for a different n");
    return std::make_unique<UniformGossipProcess>(id, p, seed);
  };
}

}  // namespace dualrad
