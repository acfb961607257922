#include "algorithms/cms_oblivious.hpp"

#include <algorithm>
#include <memory>

#include "algorithms/broadcast_algorithm.hpp"
#include "selectors/kautz_singleton.hpp"

namespace dualrad {
namespace {

class CmsObliviousProcess final : public TokenProcess {
 public:
  CmsObliviousProcess(ProcessId id, std::shared_ptr<const SsfFamily> family)
      : TokenProcess(id), family_(std::move(family)) {}
  CmsObliviousProcess(const CmsObliviousProcess&) = default;

  [[nodiscard]] Action next_action(Round round) const override {
    if (!has_token() || round <= token_round()) return Action::silent();
    const auto slot = static_cast<std::size_t>(
        (round - 1) % static_cast<Round>(family_->size()));
    if (!family_->contains(slot, id())) return Action::silent();
    return Action::transmit(Message{/*token=*/true, /*origin=*/id(),
                                    /*round_tag=*/round, /*payload=*/0});
  }

  /// Exact hint off the family's precomputed membership index: the first
  /// round >= `from` whose selector set contains this id. An SSF round
  /// carries O(k) of n senders, so the calendar elision is what keeps CMS
  /// runs (period = |F| rounds per iteration) off the per-round poll path.
  [[nodiscard]] Round next_send_round(Round from) const override {
    if (!has_token()) return kNever;
    const std::vector<std::uint32_t>& mine = family_->sets_containing(id());
    if (mine.empty()) return kNever;
    from = std::max(from, token_round() + 1);
    const auto period = static_cast<Round>(family_->size());
    const Round offset = (from - 1) % period;
    Round cycle_start = from - 1 - offset;  // round before this period began
    auto it = std::lower_bound(mine.begin(), mine.end(),
                               static_cast<std::uint32_t>(offset));
    if (it == mine.end()) {
      cycle_start += period;
      it = mine.begin();
    }
    return cycle_start + static_cast<Round>(*it) + 1;
  }

  /// State is the token round only: silence is a no-op, and so is every
  /// reception once the token is held.
  [[nodiscard]] Hearing hearing() const override { return token_hearing(); }

  [[nodiscard]] std::unique_ptr<Process> clone() const override {
    return std::make_unique<CmsObliviousProcess>(*this);
  }

 private:
  std::shared_ptr<const SsfFamily> family_;
};

}  // namespace

ProcessFactory make_cms_oblivious_factory(NodeId n,
                                          const CmsObliviousOptions& options) {
  DUALRAD_REQUIRE(n >= 2, "cms oblivious needs n >= 2");
  DUALRAD_REQUIRE(options.delta >= 1, "delta (known in-degree bound) required");
  const NodeId k = std::min<NodeId>(n, options.delta + 1);
  const SsfFamily family = options.provider ? options.provider(n, k)
                                            : kautz_singleton_ssf(n, k);
  auto shared = std::make_shared<const SsfFamily>(std::move(family));
  return [shared, n](ProcessId id, NodeId n_arg, std::uint64_t /*seed*/) {
    DUALRAD_REQUIRE(n_arg == n, "factory built for a different n");
    return std::make_unique<CmsObliviousProcess>(id, shared);
  };
}

}  // namespace dualrad
