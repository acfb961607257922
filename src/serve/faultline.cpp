#include "serve/faultline.hpp"

#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace dualrad::serve {

namespace {

// Site salts for the counter RNG: one stream per injection site, all derived
// from the plan seed.
constexpr std::uint64_t kFaultDomain = 0xFA171FE0ull;
constexpr std::uint64_t kWireSalt = 1;
constexpr std::uint64_t kJournalSalt = 2;
constexpr std::uint64_t kLifecycleSalt = 3;

[[nodiscard]] double parse_probability(const std::string& key,
                                       const std::string& text) {
  std::size_t pos = 0;
  double p = 0.0;
  try {
    p = std::stod(text, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("dualrad: fault spec: bad number for '" + key +
                                "': " + text);
  }
  if (pos != text.size()) {
    throw std::invalid_argument("dualrad: fault spec: trailing junk in '" +
                                key + "=" + text + "'");
  }
  if (!(p >= 0.0 && p <= 1.0)) {  // NaN fails both comparisons
    throw std::invalid_argument("dualrad: fault spec: probability for '" +
                                key + "' must be in [0,1], got " + text);
  }
  return p;
}

[[nodiscard]] int parse_millis(const std::string& key,
                               const std::string& text) {
  std::size_t pos = 0;
  long ms = 0;
  try {
    ms = std::stol(text, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("dualrad: fault spec: bad millis for '" + key +
                                "': " + text);
  }
  if (pos != text.size() || ms < 0 || ms > 60'000) {
    throw std::invalid_argument("dualrad: fault spec: millis for '" + key +
                                "' must be in [0,60000], got " + text);
  }
  return static_cast<int>(ms);
}

/// "P" or "P:MILLIS" for delay= / stall=.
void parse_prob_with_millis(const std::string& key, const std::string& text,
                            double& p, int& ms) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) {
    p = parse_probability(key, text);
    return;
  }
  p = parse_probability(key, text.substr(0, colon));
  ms = parse_millis(key, text.substr(colon + 1));
}

void check_category_sum(const char* category, double sum) {
  if (sum > 1.0 + 1e-12) {
    throw std::invalid_argument(
        std::string("dualrad: fault spec: ") + category +
        " fault probabilities sum past 1 (at most one fault fires per "
        "decision)");
  }
}

/// Shortest form that parses back to the same double, so a logged spec
/// replays the run exactly.
[[nodiscard]] std::string format_probability(double p) {
  char buf[32];
  const std::to_chars_result out = std::to_chars(buf, buf + sizeof buf, p);
  return std::string(buf, out.ptr);
}

/// Cumulative-threshold pick: uniform draw u against a fault ladder.
template <typename Enum, std::size_t N>
[[nodiscard]] Enum pick(double u,
                        const std::pair<double, Enum> (&ladder)[N],
                        Enum none) {
  double acc = 0.0;
  for (const auto& [p, fault] : ladder) {
    acc += p;
    if (u < acc) return fault;
  }
  return none;
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find_first_of(";,", begin);
    if (end == std::string::npos) end = spec.size();
    std::string item = spec.substr(begin, end - begin);
    begin = end + 1;
    // Trim surrounding whitespace.
    const std::size_t first = item.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    const std::size_t last = item.find_last_not_of(" \t");
    item = item.substr(first, last - first + 1);

    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument(
          "dualrad: fault spec: expected key=value, got '" + item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "seed") {
      // Digits only: stoull would accept a sign (wrapping -1 to 2^64-1)
      // and ignore trailing junk.
      try {
        if (value.empty() ||
            value.find_first_not_of("0123456789") != std::string::npos) {
          throw std::invalid_argument(value);
        }
        plan.seed = std::stoull(value);
      } catch (const std::exception&) {
        throw std::invalid_argument("dualrad: fault spec: bad seed: " + value);
      }
    } else if (key == "drop") {
      plan.drop = parse_probability(key, value);
    } else if (key == "corrupt") {
      plan.corrupt = parse_probability(key, value);
    } else if (key == "partial") {
      plan.partial = parse_probability(key, value);
    } else if (key == "reset") {
      plan.reset = parse_probability(key, value);
    } else if (key == "delay") {
      parse_prob_with_millis(key, value, plan.delay, plan.delay_ms);
    } else if (key == "torn") {
      plan.torn_write = parse_probability(key, value);
    } else if (key == "fsync_eio") {
      plan.fsync_eio = parse_probability(key, value);
    } else if (key == "enospc") {
      plan.append_enospc = parse_probability(key, value);
    } else if (key == "crash") {
      plan.crash = parse_probability(key, value);
    } else if (key == "stall") {
      parse_prob_with_millis(key, value, plan.stall, plan.stall_ms);
    } else {
      throw std::invalid_argument("dualrad: fault spec: unknown key '" + key +
                                  "'");
    }
  }
  check_category_sum("wire", plan.drop + plan.corrupt + plan.partial +
                                 plan.reset + plan.delay);
  check_category_sum("journal",
                     plan.torn_write + plan.fsync_eio + plan.append_enospc);
  check_category_sum("lifecycle", plan.crash + plan.stall);
  return plan;
}

std::string fault_plan_to_spec(const FaultPlan& plan) {
  std::string out = "seed=" + std::to_string(plan.seed);
  const auto add = [&](const char* key, double p) {
    if (p > 0.0) out += std::string(";") + key + "=" + format_probability(p);
  };
  add("drop", plan.drop);
  add("corrupt", plan.corrupt);
  add("partial", plan.partial);
  add("reset", plan.reset);
  // A non-default millis is printed even at probability 0, so the spec
  // round-trips to an equal plan.
  if (plan.delay > 0.0 || plan.delay_ms != FaultPlan{}.delay_ms) {
    out += ";delay=" + format_probability(plan.delay) + ":" +
           std::to_string(plan.delay_ms);
  }
  add("torn", plan.torn_write);
  add("fsync_eio", plan.fsync_eio);
  add("enospc", plan.append_enospc);
  add("crash", plan.crash);
  if (plan.stall > 0.0 || plan.stall_ms != FaultPlan{}.stall_ms) {
    out += ";stall=" + format_probability(plan.stall) + ":" +
           std::to_string(plan.stall_ms);
  }
  return out;
}

std::string FaultTotals::summary() const {
  std::string out;
  const auto add = [&](const char* name, std::uint64_t n) {
    if (n == 0) return;
    if (!out.empty()) out += " ";
    out += std::string(name) + "=" + std::to_string(n);
  };
  add("drops", drops);
  add("corruptions", corruptions);
  add("partials", partials);
  add("resets", resets);
  add("delays", delays);
  add("torn_writes", torn_writes);
  add("fsync_errors", fsync_errors);
  add("enospc_errors", enospc_errors);
  add("crashes", crashes);
  add("stalls", stalls);
  if (out.empty()) out = "none";
  return out;
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(plan), rng_(mix_seed(plan.seed, kFaultDomain)) {}

WireFault FaultInjector::wire_decision(std::uint64_t k) const {
  if (!plan_.any_wire()) return WireFault::None;
  const double u = rng_.uniform(k, kWireSalt);
  const std::pair<double, WireFault> ladder[] = {
      {plan_.drop, WireFault::Drop},
      {plan_.corrupt, WireFault::Corrupt},
      {plan_.partial, WireFault::Partial},
      {plan_.reset, WireFault::Reset},
      {plan_.delay, WireFault::Delay},
  };
  return pick(u, ladder, WireFault::None);
}

JournalFault FaultInjector::journal_decision(std::uint64_t k) const {
  if (!plan_.any_journal()) return JournalFault::None;
  const double u = rng_.uniform(k, kJournalSalt);
  const std::pair<double, JournalFault> ladder[] = {
      {plan_.torn_write, JournalFault::TornWrite},
      {plan_.fsync_eio, JournalFault::FsyncEio},
      {plan_.append_enospc, JournalFault::AppendEnospc},
  };
  return pick(u, ladder, JournalFault::None);
}

LifecycleFault FaultInjector::lifecycle_decision(std::uint64_t k) const {
  if (!plan_.any_lifecycle()) return LifecycleFault::None;
  const double u = rng_.uniform(k, kLifecycleSalt);
  const std::pair<double, LifecycleFault> ladder[] = {
      {plan_.crash, LifecycleFault::Crash},
      {plan_.stall, LifecycleFault::Stall},
  };
  return pick(u, ladder, LifecycleFault::None);
}

WireFault FaultInjector::next_wire(int* delay_ms) {
  if (!plan_.any_wire()) return WireFault::None;
  const std::uint64_t k = wire_seq_.fetch_add(1, std::memory_order_relaxed);
  const WireFault fault = wire_decision(k);
  switch (fault) {
    case WireFault::None: break;
    case WireFault::Drop: drops_.fetch_add(1, std::memory_order_relaxed); break;
    case WireFault::Corrupt:
      corruptions_.fetch_add(1, std::memory_order_relaxed);
      break;
    case WireFault::Partial:
      partials_.fetch_add(1, std::memory_order_relaxed);
      break;
    case WireFault::Reset:
      resets_.fetch_add(1, std::memory_order_relaxed);
      break;
    case WireFault::Delay:
      delays_.fetch_add(1, std::memory_order_relaxed);
      if (delay_ms != nullptr) *delay_ms = plan_.delay_ms;
      break;
  }
  return fault;
}

JournalFault FaultInjector::next_journal() {
  if (!plan_.any_journal()) return JournalFault::None;
  const std::uint64_t k = journal_seq_.fetch_add(1, std::memory_order_relaxed);
  const JournalFault fault = journal_decision(k);
  switch (fault) {
    case JournalFault::None: break;
    case JournalFault::TornWrite:
      torn_writes_.fetch_add(1, std::memory_order_relaxed);
      break;
    case JournalFault::FsyncEio:
      fsync_errors_.fetch_add(1, std::memory_order_relaxed);
      break;
    case JournalFault::AppendEnospc:
      enospc_errors_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  return fault;
}

LifecycleFault FaultInjector::next_lifecycle(int* stall_ms) {
  if (!plan_.any_lifecycle()) return LifecycleFault::None;
  const std::uint64_t k =
      lifecycle_seq_.fetch_add(1, std::memory_order_relaxed);
  const LifecycleFault fault = lifecycle_decision(k);
  switch (fault) {
    case LifecycleFault::None: break;
    case LifecycleFault::Crash:
      crashes_.fetch_add(1, std::memory_order_relaxed);
      break;
    case LifecycleFault::Stall:
      stalls_.fetch_add(1, std::memory_order_relaxed);
      if (stall_ms != nullptr) *stall_ms = plan_.stall_ms;
      break;
  }
  return fault;
}

FaultTotals FaultInjector::totals() const {
  FaultTotals t;
  t.drops = drops_.load(std::memory_order_relaxed);
  t.corruptions = corruptions_.load(std::memory_order_relaxed);
  t.partials = partials_.load(std::memory_order_relaxed);
  t.resets = resets_.load(std::memory_order_relaxed);
  t.delays = delays_.load(std::memory_order_relaxed);
  t.torn_writes = torn_writes_.load(std::memory_order_relaxed);
  t.fsync_errors = fsync_errors_.load(std::memory_order_relaxed);
  t.enospc_errors = enospc_errors_.load(std::memory_order_relaxed);
  t.crashes = crashes_.load(std::memory_order_relaxed);
  t.stalls = stalls_.load(std::memory_order_relaxed);
  return t;
}

namespace {
std::atomic<FaultInjector*> g_injector{nullptr};
}  // namespace

void install_fault_injector(FaultInjector* injector) {
  g_injector.store(injector, std::memory_order_release);
}

FaultInjector* fault_injector() {
  return g_injector.load(std::memory_order_acquire);
}

}  // namespace dualrad::serve
