#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "adversary/basic_adversaries.hpp"
#include "adversary/greedy_blocker.hpp"
#include "algorithms/harmonic.hpp"
#include "algorithms/strong_select.hpp"
#include "byz/cpa.hpp"
#include "byz/plan.hpp"
#include "core/audit.hpp"
#include "core/rng.hpp"
#include "core/simulator.hpp"
#include "graph/dual_builders.hpp"
#include "graph/generators.hpp"
#include "test_util.hpp"

namespace dualrad {
namespace {

SimResult run_traced(const DualGraph& net, const ProcessFactory& factory,
                     Adversary& adversary, CollisionRule rule) {
  SimConfig config;
  config.rule = rule;
  config.max_rounds = 2'000'000;
  config.trace = TraceLevel::Compressed;
  return run_broadcast(net, factory, adversary, config);
}

TEST(Audit, CleanExecutionsPass) {
  const DualGraph net = duals::gray_zone({.n = 32, .seed = 6});
  for (CollisionRule rule :
       {CollisionRule::CR1, CollisionRule::CR2, CollisionRule::CR3,
        CollisionRule::CR4}) {
    GreedyBlockerAdversary adversary;
    SimResult result = run_traced(
        net, make_harmonic_factory(net.node_count()), adversary, rule);
    const auto report = audit::audit_execution(net, result, rule);
    EXPECT_TRUE(report.ok) << to_string(rule) << ": "
                           << (report.violations.empty()
                                   ? ""
                                   : report.violations.front());
    // A coverage claim the trace does not back is caught.
    result.first_token[1] = 1;
    result.token_first[0][1] = 1;
    EXPECT_FALSE(audit::audit_execution(net, result, rule).ok)
        << to_string(rule);
  }
}

TEST(Audit, StrongSelectPasses) {
  const DualGraph net = duals::layered_complete_gprime(5, 3);
  BernoulliAdversary adversary(0.4, 3);
  const SimResult result =
      run_traced(net, make_strong_select_factory(net.node_count()), adversary,
                 CollisionRule::CR4);
  EXPECT_TRUE(audit::audit_execution(net, result, CollisionRule::CR4).ok);
}

TEST(Audit, RequiresFullTrace) {
  const DualGraph net = duals::bridge_network(8);
  BenignAdversary adversary;
  SimConfig config;
  config.max_rounds = 10'000;
  const SimResult result =
      run_broadcast(net, make_harmonic_factory(8), adversary, config);
  const auto report =
      audit::audit_execution(net, result, CollisionRule::CR4);
  EXPECT_FALSE(report.ok);
}

TEST(Audit, DetectsTamperedReach) {
  const DualGraph net = duals::bridge_network(8);
  BenignAdversary adversary;
  SimResult result = run_traced(net, make_harmonic_factory(8), adversary,
                                CollisionRule::CR4);
  ASSERT_TRUE(result.completed);
  // Tamper: claim a sender reached a node with no G' edge (self loop is
  // never an edge).
  std::vector<RoundRecord> rounds = testing::decode_all(result.trace, 8);
  ASSERT_FALSE(rounds.empty());
  for (auto& record : rounds) {
    if (!record.senders.empty()) {
      record.senders.front().reached.push_back(record.senders.front().node);
      break;
    }
  }
  result.trace = testing::encode_all(rounds);
  EXPECT_FALSE(audit::audit_execution(net, result, CollisionRule::CR4).ok);
}

TEST(Audit, DetectsSkippedReliableEdge) {
  const DualGraph net = duals::bridge_network(8);
  BenignAdversary adversary;
  SimResult result = run_traced(net, make_harmonic_factory(8), adversary,
                                CollisionRule::CR4);
  std::vector<RoundRecord> rounds = testing::decode_all(result.trace, 8);
  for (auto& record : rounds) {
    if (!record.senders.empty() && !record.senders.front().reached.empty()) {
      record.senders.front().reached.pop_back();
      break;
    }
  }
  result.trace = testing::encode_all(rounds);
  EXPECT_FALSE(audit::audit_execution(net, result, CollisionRule::CR4).ok);
}

TEST(Audit, DetectsForgedFirstToken) {
  const DualGraph net = duals::bridge_network(8);
  BenignAdversary adversary;
  SimResult result = run_traced(net, make_harmonic_factory(8), adversary,
                                CollisionRule::CR4);
  result.first_token.back() = 1;  // receiver cannot have it that early
  EXPECT_FALSE(audit::audit_execution(net, result, CollisionRule::CR4).ok);
}

TEST(Audit, DetectsWrongRuleClaim) {
  // An execution under CR1 contains collision notifications, which are
  // illegal under CR4.
  Graph g = gen::clique(3);
  const DualGraph net = make_classical(std::move(g), 0);
  BenignAdversary adversary;
  const auto factory =
      testing::scripted_factory({{0, {1, 2}}, {1, {1}}, {2, {2}}});
  SimConfig config;
  config.rule = CollisionRule::CR1;
  config.start = StartRule::Synchronous;
  config.max_rounds = 4;
  config.trace = TraceLevel::Compressed;
  config.stop_on_completion = false;
  const SimResult result = run_broadcast(net, factory, adversary, config);
  EXPECT_TRUE(audit::audit_execution(net, result, CollisionRule::CR1).ok);
  EXPECT_FALSE(audit::audit_execution(net, result, CollisionRule::CR4).ok);
}

// ------------------------------------------------------------ trace codec

Message random_message(StreamRng& rng, NodeId n) {
  return Message{static_cast<TokenId>(rng.below(4)),
                 static_cast<ProcessId>(rng.below(
                     static_cast<std::uint64_t>(n) + 1)) - 1,  // -1 included
                 static_cast<Round>(rng.below(64)) - 32,
                 rng()};
}

TEST(TraceCodec, RoundTripsHandBuiltRecords) {
  // Randomized records carry what the codec must reproduce verbatim:
  // negative origin and round_tag, unsorted reach lists, every reception
  // kind, and CR1 collisions at sender nodes.
  constexpr NodeId n = 40;
  StreamRng rng(0xC0DEC);
  std::vector<RoundRecord> records;
  for (Round round = 1; round <= 200; ++round) {
    RoundRecord record;
    record.round = round;
    record.receptions.assign(static_cast<std::size_t>(n), Reception{});
    for (NodeId v = 0; v < n; ++v) {
      Reception& rec = record.receptions[static_cast<std::size_t>(v)];
      switch (rng.below(3)) {
        case 0: break;
        case 1: rec = Reception::collision(); break;
        default: rec = Reception::of(random_message(rng, n)); break;
      }
    }
    for (NodeId u = 0; u < n && round % 10 != 0; ++u) {
      if (!rng.bernoulli(0.2)) continue;
      SenderRecord sender{u, random_message(rng, n), {}};
      for (NodeId v = 0; v < n; ++v) {
        if (v != u && rng.bernoulli(0.3)) sender.reached.push_back(v);
      }
      std::shuffle(sender.reached.begin(), sender.reached.end(), rng);
      // CR1: a sender that hears two arrivals hears top.
      if (rng.bernoulli(0.5)) {
        record.receptions[static_cast<std::size_t>(u)] = Reception::collision();
      }
      record.senders.push_back(std::move(sender));
    }
    records.push_back(std::move(record));
  }
  const Trace trace = testing::encode_all(records);
  ASSERT_EQ(trace.compressed_rounds(), records.size());
  RoundRecord decoded;
  for (std::size_t i = 0; i < records.size(); ++i) {
    trace.decode_compressed(i, n, decoded);
    EXPECT_TRUE(decoded == records[i]) << "round " << records[i].round;
  }
}

TEST(TraceCodec, RejectsOutOfRangeNodeIds) {
  // The audit indexes per-node arrays with decoded ids, so a sender or
  // reach id outside [0, n) must make the decode throw.
  const DualGraph net = duals::bridge_network(8);
  BenignAdversary adversary;
  SimResult result = run_traced(net, make_harmonic_factory(8), adversary,
                                CollisionRule::CR4);
  RoundRecord bad_sender;
  bad_sender.round = 1;
  bad_sender.senders.push_back({1000, Message{}, {}});
  RoundRecord bad_reach;
  bad_reach.round = 1;
  bad_reach.senders.push_back({0, Message{}, {1, 5000}});
  for (const RoundRecord& bad : {bad_sender, bad_reach}) {
    result.trace = testing::encode_all({bad});
    RoundRecord out;
    EXPECT_THROW(result.trace.decode_compressed(0, 8, out),
                 std::invalid_argument);
    EXPECT_THROW((void)audit::audit_execution(net, result, CollisionRule::CR4),
                 std::invalid_argument);
  }
}

TEST(TraceCodec, MutatedBlobsDecodeOrThrow) {
  // Seeded mutation fuzz (testing::mutate) of the decoder over real engine
  // blobs (CR1, CR2, CR4, and a forging Byzantine run), splicing from the
  // next blob in the corpus. Every decode — and the audit reading the
  // decoded rounds — returns or throws std::invalid_argument; anything
  // else, a crash or sanitizer report (the ASan/UBSan job runs this as is)
  // fails.
  const DualGraph net = duals::gray_zone({.n = 32, .seed = 6});
  std::vector<std::pair<SimResult, CollisionRule>> corpus;
  for (const CollisionRule rule :
       {CollisionRule::CR1, CollisionRule::CR2, CollisionRule::CR4}) {
    BernoulliAdversary adversary(0.4, 5);
    SimConfig config;
    config.rule = rule;
    config.max_rounds = 32;
    config.trace = TraceLevel::Compressed;
    corpus.emplace_back(run_broadcast(net, make_harmonic_factory(32),
                                      adversary, config),
                        rule);
  }
  const byz::ByzantinePlan plan = byz::make_random_plan(
      net, /*f=*/1, /*count=*/3, byz::ByzBehavior::Forge, {}, 0xF00D);
  {
    BenignAdversary adversary;
    SimConfig config;
    config.rule = CollisionRule::CR3;
    config.max_rounds = 32;
    config.trace = TraceLevel::Compressed;
    config.byzantine = &plan;
    corpus.emplace_back(
        run_broadcast(net,
                      byz::make_uncertified_relay_factory(32, {.relay_p = 1.0}),
                      adversary, config),
        CollisionRule::CR3);
    ASSERT_FALSE(corpus.back().first.forged_tokens.empty());
  }

  StreamRng rng(0xF022);
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  RoundRecord out;
  for (int iter = 0; iter < 800; ++iter) {
    const auto& [original, rule] = corpus[static_cast<std::size_t>(iter) %
                                          corpus.size()];
    SimResult result = original;
    testing::mutate(result.trace.blob, rng,
                    corpus[static_cast<std::size_t>(iter + 1) % corpus.size()]
                        .first.trace.blob);
    for (std::size_t i = 0; i < result.trace.compressed_rounds(); ++i) {
      try {
        result.trace.decode_compressed(i, net.node_count(), out);
        ++decoded;
      } catch (const std::invalid_argument&) {
        ++rejected;
      }
    }
    try {
      (void)audit::audit_execution(net, result, rule);
    } catch (const std::invalid_argument&) {
    }
  }
  // The mutations both break rounds and leave rounds intact.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace dualrad
