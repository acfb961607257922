#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <string>
#include <vector>

#include "adversary/basic_adversaries.hpp"
#include "algorithms/decay.hpp"
#include "campaign/engine.hpp"
#include "core/reference_engine.hpp"
#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "graph/dual_builders.hpp"
#include "obs/perfetto_writer.hpp"
#include "obs/rss.hpp"
#include "obs/telemetry.hpp"

/// Tests of the observability layer (src/obs): the RoundTelemetry counter
/// registry against SimResult aggregates, the Perfetto JSON exporter
/// (through a minimal JSON scanner), and the RSS sampler. Bit-identity of
/// results with telemetry attached is pinned in
/// tests/test_engine_equivalence.cpp.

namespace dualrad {
namespace {

SimResult run_decay(const DualGraph& net, SimConfig config,
                    obs::RoundTelemetry* telemetry, double p = 0.5) {
  config.telemetry = telemetry;
  BernoulliAdversary adversary(p, mix_seed(config.seed, 0xAD));
  return run_broadcast(net, make_decay_factory(net.node_count()), adversary,
                       config);
}

TEST(Telemetry, WindowRingAndTotals) {
  obs::RoundTelemetry t(4);
  t.begin_execution(10);
  for (Round r = 1; r <= 10; ++r) {
    t.begin_round(r);
    t.counters().deliveries = static_cast<std::uint64_t>(r);
    t.add_phase_ns(obs::Phase::Poll, 100);
    t.end_round();
  }
  EXPECT_EQ(t.rounds_recorded(), 10);
  EXPECT_EQ(t.totals().deliveries, 55u);
  EXPECT_EQ(t.total_phase_ns(obs::Phase::Poll), 1000u);
  EXPECT_EQ(t.total_ns(), 1000u);
  EXPECT_EQ(t.max_round_deliveries(), 10u);
  EXPECT_EQ(t.max_round_deliveries_round(), 10);
  // Only the last `window` rounds remain addressable.
  EXPECT_FALSE(t.in_window(6));
  EXPECT_TRUE(t.in_window(7));
  EXPECT_EQ(t.sample_at(7).counters.deliveries, 7u);
  const std::vector<obs::RoundSample> samples = t.window_samples();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples.front().round, 7);
  EXPECT_EQ(samples.back().round, 10);
  // begin_execution resets everything.
  t.begin_execution(5);
  EXPECT_EQ(t.rounds_recorded(), 0);
  EXPECT_EQ(t.totals().deliveries, 0u);
}

TEST(Telemetry, CountersMatchSimResultAggregates) {
  // On randomized grid workloads the counter registry must reproduce the
  // engine's own aggregates exactly: senders == total_sends, collisions ==
  // total_collision_events, rounds == rounds_executed, and the coverage
  // delta total == covered nodes minus the round-0 source. The reference
  // engine, under every collision rule, must record the same per-round
  // senders, collisions, deliveries and coverage deltas sample by sample.
  const DualGraph net = duals::gray_zone({.n = 48, .seed = 7});
  for (const CollisionRule rule : {CollisionRule::CR1, CollisionRule::CR2,
                                   CollisionRule::CR3, CollisionRule::CR4}) {
    for (const std::uint64_t seed : {11u, 12u, 13u}) {
      SimConfig config;
      config.rule = rule;
      config.start = StartRule::Asynchronous;
      config.max_rounds = 30'000;
      config.seed = seed;
      const std::string label =
          std::string(to_string(rule)) + "/seed " + std::to_string(seed);
      obs::RoundTelemetry telemetry(4096);
      const SimResult result = run_decay(net, config, &telemetry);
      ASSERT_TRUE(result.completed) << label;

      EXPECT_EQ(telemetry.rounds_recorded(), result.rounds_executed) << label;
      EXPECT_EQ(telemetry.totals().senders, result.total_sends) << label;
      EXPECT_EQ(telemetry.totals().collisions, result.total_collision_events)
          << label;
      std::uint64_t covered = 0;
      for (const Round r : result.first_token) covered += (r != kNever) ? 1 : 0;
      // Minus the source.
      EXPECT_EQ(telemetry.totals().newly_covered, covered - 1) << label;
      // Deliveries bound the senders from below (each sender deposits at
      // least its self-arrival) and polled bounds senders.
      EXPECT_GE(telemetry.totals().deliveries, telemetry.totals().senders)
          << label;
      EXPECT_GE(telemetry.totals().polled, telemetry.totals().senders)
          << label;
      EXPECT_GT(telemetry.totals().replans, 0u) << label;

      obs::RoundTelemetry ref_telemetry(telemetry.window());
      config.telemetry = &ref_telemetry;
      BernoulliAdversary adversary(0.5, mix_seed(config.seed, 0xAD));
      const SimResult ref = run_broadcast_reference(
          net, make_decay_factory(net.node_count()), adversary, config);
      ASSERT_EQ(ref_telemetry.rounds_recorded(), result.rounds_executed)
          << label;
      ASSERT_TRUE(telemetry.in_window(1)) << label << ": window too small";
      for (Round r = 1; r <= result.rounds_executed; ++r) {
        const obs::RoundCounters& want = telemetry.sample_at(r).counters;
        const obs::RoundCounters& got = ref_telemetry.sample_at(r).counters;
        EXPECT_EQ(got.senders, want.senders) << label << " round " << r;
        EXPECT_EQ(got.collisions, want.collisions) << label << " round " << r;
        EXPECT_EQ(got.deliveries, want.deliveries) << label << " round " << r;
        EXPECT_EQ(got.newly_covered, want.newly_covered)
            << label << " round " << r;
      }
    }
  }
}

/// Minimal JSON scanner for the Perfetto export: tokenizes the structure
/// (objects, arrays, strings, numbers, literals) and rejects anything
/// malformed. Good enough to prove the trace is well-formed JSON and to
/// extract the "ph" event kinds — without a JSON library dependency.
class MiniJson {
 public:
  explicit MiniJson(const std::string& text) : s_(text) {}

  bool parse() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return at_ == s_.size();
  }

  const std::vector<std::string>& strings() const { return strings_; }

 private:
  bool value() {
    if (at_ >= s_.size()) return false;
    const char c = s_[at_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }
  bool object() {
    ++at_;  // '{'
    skip_ws();
    if (peek('}')) return true;
    while (true) {
      skip_ws();
      if (!string_value()) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek('}')) return true;
      if (!expect(',')) return false;
    }
  }
  bool array() {
    ++at_;  // '['
    skip_ws();
    if (peek(']')) return true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(']')) return true;
      if (!expect(',')) return false;
    }
  }
  bool string_value() {
    if (at_ >= s_.size() || s_[at_] != '"') return false;
    const std::size_t begin = ++at_;
    while (at_ < s_.size() && s_[at_] != '"') {
      if (s_[at_] == '\\') return false;  // exporter never escapes
      ++at_;
    }
    if (at_ >= s_.size()) return false;
    strings_.push_back(s_.substr(begin, at_ - begin));
    ++at_;
    return true;
  }
  bool number() {
    const std::size_t begin = at_;
    if (at_ < s_.size() && (s_[at_] == '-' || s_[at_] == '+')) ++at_;
    while (at_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[at_])) ||
            s_[at_] == '.' || s_[at_] == 'e' || s_[at_] == 'E' ||
            s_[at_] == '-' || s_[at_] == '+')) {
      ++at_;
    }
    return at_ > begin;
  }
  bool literal(const char* word) {
    const std::size_t len = std::strlen(word);
    if (s_.compare(at_, len, word) != 0) return false;
    at_ += len;
    return true;
  }
  bool peek(char c) {
    if (at_ < s_.size() && s_[at_] == c) {
      ++at_;
      return true;
    }
    return false;
  }
  bool expect(char c) { return peek(c); }
  void skip_ws() {
    while (at_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[at_]))) {
      ++at_;
    }
  }

  const std::string& s_;
  std::size_t at_ = 0;
  std::vector<std::string> strings_;
};

TEST(PerfettoWriter, ExportIsWellFormedAndCoversPhases) {
  const DualGraph net = duals::gray_zone({.n = 48, .seed = 7});
  SimConfig config;
  config.rule = CollisionRule::CR2;
  config.start = StartRule::Asynchronous;
  config.max_rounds = 30'000;
  config.seed = 5;
  // Small window: the execution outruns it, so the export must also emit
  // the folded "earlier-rounds" slice.
  obs::RoundTelemetry telemetry(8);
  const SimResult result = run_decay(net, config, &telemetry);
  ASSERT_TRUE(result.completed);
  ASSERT_GT(result.rounds_executed, 8);

  const std::string json = to_perfetto_json(telemetry, "test-trace");
  MiniJson parser(json);
  ASSERT_TRUE(parser.parse()) << json.substr(0, 400);

  // The scanner records every string token in order; count event kinds and
  // phase-slice names from them.
  int slices = 0, counters = 0, metadata = 0;
  bool saw_earlier = false, saw_process_name = false;
  for (std::size_t i = 0; i < parser.strings().size(); ++i) {
    const std::string& s = parser.strings()[i];
    if (s == "ph" && i + 1 < parser.strings().size()) {
      const std::string& kind = parser.strings()[i + 1];
      slices += kind == "X";
      counters += kind == "C";
      metadata += kind == "M";
      EXPECT_TRUE(kind == "X" || kind == "C" || kind == "M") << kind;
    }
    saw_earlier = saw_earlier || s == "earlier-rounds";
    saw_process_name = saw_process_name || s == "test-trace";
  }
  EXPECT_EQ(metadata, 2);  // process_name + thread_name
  EXPECT_TRUE(saw_process_name);
  EXPECT_TRUE(saw_earlier);
  // 8 ringed rounds x (>= poll/deliver slices) and 3 counter tracks each.
  EXPECT_GE(slices, 16);
  EXPECT_EQ(counters, 8 * 3);
  for (const char* phase : {"poll", "adversary", "propagate", "deliver"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(phase) + "\""),
              std::string::npos)
        << phase;
  }

  EXPECT_THROW((void)to_perfetto_json(telemetry, "bad\"name"),
               std::exception);
}

TEST(Rss, SamplerReportsAndResets) {
  const std::uint64_t current = obs::current_rss_bytes();
  ASSERT_GT(current, 0u);
  EXPECT_GE(obs::peak_rss_bytes(), current);
  if (!obs::reset_peak()) GTEST_SKIP() << "clear_refs unavailable";
  // After a reset the peak re-arms near the current RSS and must track a
  // fresh allocation touching every page.
  const std::uint64_t base = obs::peak_rss_bytes();
  constexpr std::size_t kBytes = 64u << 20;
  std::vector<unsigned char> hog(kBytes, 1);
  for (std::size_t i = 0; i < hog.size(); i += 4096) hog[i] = 2;
  EXPECT_GE(obs::peak_rss_bytes(), base + kBytes / 2);
}

TEST(CampaignTelemetry, RowsMatchStandaloneRun) {
  // CampaignConfig::collect_telemetry fills one TelemetryRow per trial whose
  // deterministic counter fields reproduce a standalone run with the same
  // derived seed.
  campaign::Scenario scenario;
  scenario.name = "obs/grayzone";
  scenario.trials = 2;
  scenario.rule = CollisionRule::CR2;
  scenario.start = StartRule::Asynchronous;
  scenario.max_rounds = 30'000;
  scenario.network = [] { return duals::gray_zone({.n = 48, .seed = 7}); };
  scenario.algorithm = [](const DualGraph& net) {
    return make_decay_factory(net.node_count());
  };
  scenario.adversary =
      campaign::make_seeded_adversary_factory<BernoulliAdversary>(0.5);

  campaign::CampaignConfig config;
  config.collect_telemetry = true;
  config.threads = 2;
  const campaign::CampaignResult result =
      campaign::run_campaign({scenario}, config);
  ASSERT_EQ(result.telemetry.size(), 2u);

  const DualGraph net = duals::gray_zone({.n = 48, .seed = 7});
  for (std::uint32_t trial = 0; trial < 2; ++trial) {
    SimConfig sim;
    sim.rule = scenario.rule;
    sim.start = scenario.start;
    sim.max_rounds = scenario.max_rounds;
    sim.seed = campaign::trial_seed(1, scenario.name, trial);
    obs::RoundTelemetry telemetry(1);
    (void)run_decay(net, sim, &telemetry);

    const campaign::TelemetryRow& row = result.telemetry[trial];
    EXPECT_EQ(row.scenario, scenario.name);
    EXPECT_EQ(row.trial, trial);
    EXPECT_GE(row.wall_us, 0);
    EXPECT_EQ(row.senders, telemetry.totals().senders);
    EXPECT_EQ(row.deliveries, telemetry.totals().deliveries);
    EXPECT_EQ(row.collisions, telemetry.totals().collisions);
    EXPECT_EQ(row.polled, telemetry.totals().polled);
    EXPECT_EQ(row.replans, telemetry.totals().replans);
    EXPECT_EQ(row.newly_covered, telemetry.totals().newly_covered);
    EXPECT_EQ(row.max_round_deliveries, telemetry.max_round_deliveries());
  }
}

}  // namespace
}  // namespace dualrad
