#include "byz/cpa.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "byz/plan.hpp"
#include "core/rng.hpp"

namespace dualrad::byz {

namespace {

/// The shared relay schedule: a relay_p coin per on-air round, on air from
/// the round after `start` through an initial window of `active_rounds`,
/// then one beacon round per `rebroadcast_period` (counted from `start`, so
/// nodes beacon staggered). Pure in (rng, start, round) — the scan below is
/// what makes next_send_round exact.
struct RelaySchedule {
  double relay_p = 0.5;
  Round active_rounds = 0;
  Round rebroadcast_period = 0;

  [[nodiscard]] bool on_air(Round start, Round round) const {
    if (start == kNever || round <= start) return false;
    if (active_rounds <= 0) return true;
    const Round index = round - start - 1;
    if (index < active_rounds) return true;
    return rebroadcast_period > 0 && index % rebroadcast_period == 0;
  }

  /// First on-air round at or after `round`; kNever if permanently quiet.
  [[nodiscard]] Round next_on_air(Round start, Round round) const {
    round = std::max(round, start + 1);
    if (on_air(start, round)) return round;
    if (rebroadcast_period <= 0) return kNever;
    const Round index = round - start - 1;
    const Round next_index =
        ((index + rebroadcast_period - 1) / rebroadcast_period) *
        rebroadcast_period;
    return start + next_index + 1;
  }

  [[nodiscard]] bool coin(const CounterRng& rng, Round round) const {
    return rng.bernoulli(relay_p, round, /*salt=*/0);
  }

  /// First round >= `from` whose coin fires while on air. Terminates in
  /// O(1/relay_p) expected probes (relay_p > 0 is required by the factory).
  [[nodiscard]] Round scan_for_send(const CounterRng& rng, Round start,
                                    Round from) const {
    for (Round r = next_on_air(start, from); r != kNever;
         r = next_on_air(start, r + 1)) {
      if (coin(rng, r)) return r;
    }
    return kNever;
  }
};

class CpaProcess final : public Process {
 public:
  CpaProcess(ProcessId id, const CpaOptions& options, std::uint64_t seed)
      : Process(id),
        f_(options.f),
        trusted_(options.trusted_origins),
        schedule_{options.relay_p, options.active_rounds,
                  options.rebroadcast_period},
        rng_(seed) {
    std::sort(trusted_.begin(), trusted_.end());
  }
  CpaProcess(const CpaProcess&) = default;

  void on_activate(Round round, const std::optional<Message>& initial) override {
    if (initial) learn(round, *initial);
  }

  [[nodiscard]] Action next_action(Round round) const override {
    if (accepted_.empty() || !schedule_.on_air(accept_start_, round)) {
      return Action::silent();
    }
    if (!schedule_.coin(rng_, round)) return Action::silent();
    // Which accepted token to relay is drawn independently of the send coin
    // (salt 1), so growing the accepted set never shifts the send schedule.
    const auto pick = static_cast<std::size_t>(
        rng_.below(accepted_.size(), round, /*salt=*/1));
    return Action::transmit(Message{accepted_[pick], /*origin=*/id(),
                                    /*round_tag=*/round, /*payload=*/0});
  }

  void on_receive(Round round, const Reception& reception) override {
    if (reception.is_message()) learn(round, *reception.message);
  }

  [[nodiscard]] Round next_send_round(Round from) const override {
    if (accepted_.empty()) return kNever;
    from = std::max(from, accept_start_ + 1);
    if (memo_next_ != kUnplanned && from >= memo_from_ &&
        (memo_next_ == kNever || from <= memo_next_)) {
      return memo_next_;
    }
    memo_from_ = from;
    memo_next_ = schedule_.scan_for_send(rng_, accept_start_, from);
    return memo_next_;
  }

  /// State changes only on message receptions; metrics count acceptances.
  [[nodiscard]] Hearing hearing() const override {
    return Hearing::NonSilence;
  }

  [[nodiscard]] std::unique_ptr<Process> clone() const override {
    return std::make_unique<CpaProcess>(*this);
  }

  [[nodiscard]] std::vector<ProcessMetric> final_metrics() const override {
    return {{"cpa_accepted", static_cast<double>(accepted_.size())},
            {"cpa_forged", static_cast<double>(forged_accepts_)}};
  }

 private:
  static constexpr Round kUnplanned = -2;

  [[nodiscard]] bool has_accepted(TokenId tok) const {
    return std::binary_search(accepted_.begin(), accepted_.end(), tok);
  }

  void learn(Round round, const Message& m) {
    if (m.token == kNoToken || has_accepted(m.token)) return;
    const bool certified =
        m.origin == kInvalidProcess ||  // environment injection
        std::binary_search(trusted_.begin(), trusted_.end(), m.origin);
    if (certified) {
      accept(round, m.token);
      return;
    }
    // Count distinct confirming origins; channels are locally authenticated,
    // so distinct origins are distinct in-neighbors.
    const auto it = std::lower_bound(
        pending_.begin(), pending_.end(), m.token,
        [](const auto& e, TokenId t) { return e.first < t; });
    if (it == pending_.end() || it->first != m.token) {
      pending_.insert(it, {m.token, {m.origin}});
      return;
    }
    std::vector<ProcessId>& origins = it->second;
    const auto pos = std::lower_bound(origins.begin(), origins.end(), m.origin);
    if (pos != origins.end() && *pos == m.origin) return;
    origins.insert(pos, m.origin);
    if (static_cast<std::int32_t>(origins.size()) >= f_ + 1) {
      accept(round, m.token);
    }
  }

  void accept(Round round, TokenId tok) {
    if (accepted_.empty()) {
      accept_start_ = round;
      memo_next_ = kUnplanned;  // the schedule's origin is now fixed
    }
    accepted_.insert(
        std::lower_bound(accepted_.begin(), accepted_.end(), tok), tok);
    if (tok >= kForgedTokenBase) ++forged_accepts_;
    const auto it = std::lower_bound(
        pending_.begin(), pending_.end(), tok,
        [](const auto& e, TokenId t) { return e.first < t; });
    if (it != pending_.end() && it->first == tok) pending_.erase(it);
  }

  std::int32_t f_;
  std::vector<ProcessId> trusted_;  ///< sorted
  RelaySchedule schedule_;
  CounterRng rng_;
  std::vector<TokenId> accepted_;  ///< sorted
  /// Per unaccepted token: the distinct origins heard so far (sorted).
  std::vector<std::pair<TokenId, std::vector<ProcessId>>> pending_;
  Round accept_start_ = kNever;  ///< round of the first acceptance
  std::uint64_t forged_accepts_ = 0;
  mutable Round memo_from_ = 0;
  mutable Round memo_next_ = kUnplanned;
};

class UncertifiedRelayProcess final : public Process {
 public:
  UncertifiedRelayProcess(ProcessId id, const UncertifiedRelayOptions& options,
                          std::uint64_t seed)
      : Process(id),
        schedule_{options.relay_p, options.active_rounds,
                  options.rebroadcast_period},
        rng_(seed) {}
  UncertifiedRelayProcess(const UncertifiedRelayProcess&) = default;

  void on_activate(Round round, const std::optional<Message>& initial) override {
    if (initial) learn(round, *initial);
  }

  [[nodiscard]] Action next_action(Round round) const override {
    if (token_ == kNoToken || !schedule_.on_air(adopt_round_, round) ||
        !schedule_.coin(rng_, round)) {
      return Action::silent();
    }
    return Action::transmit(
        Message{token_, /*origin=*/id(), /*round_tag=*/round, /*payload=*/0});
  }

  void on_receive(Round round, const Reception& reception) override {
    if (reception.is_message()) learn(round, *reception.message);
  }

  [[nodiscard]] Round next_send_round(Round from) const override {
    if (token_ == kNoToken) return kNever;
    from = std::max(from, adopt_round_ + 1);
    if (memo_next_ != kUnplanned && from >= memo_from_ &&
        (memo_next_ == kNever || from <= memo_next_)) {
      return memo_next_;
    }
    memo_from_ = from;
    memo_next_ = schedule_.scan_for_send(rng_, adopt_round_, from);
    return memo_next_;
  }

  [[nodiscard]] Hearing hearing() const override {
    return Hearing::NonSilence;
  }

  [[nodiscard]] std::unique_ptr<Process> clone() const override {
    return std::make_unique<UncertifiedRelayProcess>(*this);
  }

  [[nodiscard]] std::vector<ProcessMetric> final_metrics() const override {
    return {{"relay_token", static_cast<double>(token_)}};
  }

 private:
  static constexpr Round kUnplanned = -2;

  /// Adopt the first token heard, no questions asked — the vulnerability
  /// CPA exists to close.
  void learn(Round round, const Message& m) {
    if (token_ != kNoToken || m.token == kNoToken) return;
    token_ = m.token;
    adopt_round_ = round;
    memo_next_ = kUnplanned;
  }

  RelaySchedule schedule_;
  CounterRng rng_;
  TokenId token_ = kNoToken;
  Round adopt_round_ = kNever;
  mutable Round memo_from_ = 0;
  mutable Round memo_next_ = kUnplanned;
};

}  // namespace

ProcessFactory make_cpa_factory(NodeId n, const CpaOptions& options) {
  DUALRAD_REQUIRE(n >= 2, "CPA needs n >= 2");
  DUALRAD_REQUIRE(options.f >= 1, "CPA needs f >= 1");
  DUALRAD_REQUIRE(options.relay_p > 0.0 && options.relay_p <= 1.0,
                  "CPA relay probability must be in (0, 1]");
  return [options, n](ProcessId id, NodeId n_arg, std::uint64_t seed) {
    DUALRAD_REQUIRE(n_arg == n, "factory built for a different n");
    return std::make_unique<CpaProcess>(id, options, seed);
  };
}

ProcessFactory make_uncertified_relay_factory(
    NodeId n, const UncertifiedRelayOptions& options) {
  DUALRAD_REQUIRE(n >= 2, "relay needs n >= 2");
  DUALRAD_REQUIRE(options.relay_p > 0.0 && options.relay_p <= 1.0,
                  "relay probability must be in (0, 1]");
  return [options, n](ProcessId id, NodeId n_arg, std::uint64_t seed) {
    DUALRAD_REQUIRE(n_arg == n, "factory built for a different n");
    return std::make_unique<UncertifiedRelayProcess>(id, options, seed);
  };
}

}  // namespace dualrad::byz
