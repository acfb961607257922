#include "algorithms/round_robin_bcast.hpp"

#include <algorithm>

#include "algorithms/broadcast_algorithm.hpp"

namespace dualrad {
namespace {

class RoundRobinProcess final : public TokenProcess {
 public:
  RoundRobinProcess(ProcessId id, NodeId n) : TokenProcess(id), n_(n) {}
  RoundRobinProcess(const RoundRobinProcess&) = default;

  [[nodiscard]] Action next_action(Round round) const override {
    if (!has_token() || round <= token_round()) return Action::silent();
    if (round % n_ != id() % n_) return Action::silent();
    return Action::transmit(Message{/*token=*/true, /*origin=*/id(),
                                    /*round_tag=*/round, /*payload=*/0});
  }

  /// The schedule is closed-form — the next round >= `from` congruent to
  /// id (mod n) once the token is held — so the sparse engine's calendar
  /// elides the n - 1 silent rounds of every cycle exactly.
  [[nodiscard]] Round next_send_round(Round from) const override {
    if (!has_token()) return kNever;
    from = std::max(from, token_round() + 1);
    Round delta = (id() % n_) - (from % n_);
    if (delta < 0) delta += n_;
    return from + delta;
  }

  /// State is the token round only: silence is a no-op, and so is every
  /// reception once the token is held.
  [[nodiscard]] Hearing hearing() const override { return token_hearing(); }

  [[nodiscard]] std::unique_ptr<Process> clone() const override {
    return std::make_unique<RoundRobinProcess>(*this);
  }

 private:
  NodeId n_;
};

}  // namespace

ProcessFactory make_round_robin_factory(NodeId n) {
  DUALRAD_REQUIRE(n >= 1, "round robin needs n >= 1");
  return [n](ProcessId id, NodeId n_arg, std::uint64_t /*seed*/) {
    DUALRAD_REQUIRE(n_arg == n, "factory built for a different n");
    return std::make_unique<RoundRobinProcess>(id, n);
  };
}

}  // namespace dualrad
