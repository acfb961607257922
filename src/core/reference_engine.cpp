#include "core/reference_engine.hpp"

#include <algorithm>
#include <optional>

#include "byz/runtime.hpp"
#include "core/rng.hpp"
#include "obs/telemetry.hpp"

namespace dualrad {

SimResult run_broadcast_reference(const DualGraph& net,
                                  const ProcessFactory& factory,
                                  Adversary& adversary,
                                  const SimConfig& config) {
  DUALRAD_REQUIRE(config.max_rounds >= 1, "max_rounds must be positive");
  DUALRAD_REQUIRE(static_cast<bool>(factory), "process factory must be set");

  const NodeId n = net.node_count();
  const auto un = static_cast<std::size_t>(n);
  // Hoisted Graph views: on CSR-built networks g()/g_prime() lock a lazy
  // materialization mutex per call, which must not sit in the round loop.
  const Graph& g = net.g();
  const Graph& gp = net.g_prime();

  adversary.on_execution_start(net);

  SimResult result;
  result.process_of_node = adversary.assign_processes(net);
  DUALRAD_CHECK(result.process_of_node.size() == un,
                "proc mapping has wrong size");
  {
    std::vector<bool> seen(un, false);
    for (ProcessId p : result.process_of_node) {
      DUALRAD_CHECK(p >= 0 && p < n && !seen[static_cast<std::size_t>(p)],
                    "proc mapping must be a permutation");
      seen[static_cast<std::size_t>(p)] = true;
    }
  }

  // Instantiate processes, indexed by node for the rest of the run.
  std::vector<std::unique_ptr<Process>> proc_at(un);
  for (NodeId v = 0; v < n; ++v) {
    const ProcessId pid = result.process_of_node[static_cast<std::size_t>(v)];
    proc_at[static_cast<std::size_t>(v)] =
        factory(pid, n, mix_seed(config.seed, static_cast<std::uint64_t>(pid)));
    DUALRAD_CHECK(proc_at[static_cast<std::size_t>(v)] != nullptr,
                  "factory returned null process");
    DUALRAD_CHECK(proc_at[static_cast<std::size_t>(v)]->id() == pid,
                  "factory produced process with wrong id");
  }

  // Token sources: the classic problem injects kBroadcastToken at the
  // network source; multi-message executions inject token i+1 at
  // token_sources[i] (all distinct).
  std::vector<NodeId> sources = config.token_sources;
  if (sources.empty()) sources.push_back(net.source());
  const auto k = sources.size();
  validate_token_sources(n, sources);

  // Byzantine node faults, applied through the exact same runtime hooks as
  // the sparse engine (byz/runtime.hpp) so both engines stay bit-identical.
  std::optional<byz::ByzRuntime> byzrt;
  if (config.byzantine != nullptr) {
    byzrt.emplace(*config.byzantine, result.process_of_node);
  }
  std::vector<NodeId> byz_removed;
  std::vector<NodeId> byz_added;

  std::vector<bool> awake(un, false);
  // covered[v]: the process at v holds at least one token (what the
  // adversary view exposes — NodeFlags, the type the parallel kernel needs);
  // holds[t*n + v]: it holds token id t+1.
  NodeFlags covered(un, 0);
  std::vector<bool> holds(k * un, false);
  result.token_first.assign(k, std::vector<Round>(un, kNever));
  // covered_delta: nodes first covered by the previous round's deliveries
  // (the AdversaryView::newly_covered span), ascending; next_delta collects
  // the running round's additions.
  std::vector<NodeId> covered_delta;
  std::vector<NodeId> next_delta;

  // Environment input: each token arrives at its source process prior to
  // round 1 (Section 3).
  std::size_t held_count = 0;
  for (std::size_t t = 0; t < k; ++t) {
    const auto src = static_cast<std::size_t>(sources[t]);
    const Message env_msg{/*token=*/static_cast<TokenId>(t + 1),
                          /*origin=*/kInvalidProcess,
                          /*round_tag=*/0, /*payload=*/0};
    covered[src] = 1;
    holds[t * un + src] = true;
    result.token_first[t][src] = 0;
    ++held_count;
    proc_at[src]->on_activate(0, env_msg);
    awake[src] = true;
    covered_delta.push_back(sources[t]);
  }
  std::sort(covered_delta.begin(), covered_delta.end());
  if (config.start == StartRule::Synchronous) {
    for (NodeId v = 0; v < n; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      if (awake[uv]) continue;
      proc_at[uv]->on_activate(0, std::nullopt);
      awake[uv] = true;
    }
  }

  result.trace.level = config.trace;
  const bool record_trace = config.trace == TraceLevel::Compressed;

  // Reusable per-round buffers. The ReachSink is handed to the adversary
  // every round with capacity retained — no per-round reach allocations.
  std::vector<NodeId> senders;
  std::vector<Message> sent_msg(un);
  std::vector<bool> is_sender(un, false);
  std::vector<std::vector<Message>> arrivals(un);
  std::vector<Reception> receptions(un);
  ReachSink sink;

  const std::size_t all_held = k * un;

  // Telemetry mirrors the sparse engine's (core/simulator.cpp): strictly
  // out-of-band reads + clock samples, all behind one null check. The
  // reference engine has no calendar, so calendar_scanned and replans
  // stay 0.
  obs::RoundTelemetry* const telemetry = config.telemetry;
  if (telemetry) telemetry->begin_execution(n);

  for (Round round = 1; round <= config.max_rounds; ++round) {
    result.rounds_executed = round;
    if (telemetry) telemetry->begin_round(round);
    std::uint64_t phase_start = telemetry ? obs::monotonic_ns() : 0;
    const auto end_phase = [&](obs::Phase phase) {
      if (telemetry == nullptr) return;
      const std::uint64_t now = obs::monotonic_ns();
      telemetry->add_phase_ns(phase, now - phase_start);
      phase_start = now;
    };
    std::uint64_t polled = 0;
    std::uint64_t deliveries = 0;

    senders.clear();
    for (NodeId v = 0; v < n; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      is_sender[uv] = false;
      arrivals[uv].clear();
      if (!awake[uv]) continue;
      if (telemetry) ++polled;
      const Action action = proc_at[uv]->next_action(round);
      if (!action.send) continue;
      const TokenId tok = action.message.token;
      if (byzrt && byz::ByzRuntime::is_forged(tok)) {
        // Relaying a forged token you actually heard is protocol-legal (that
        // relay is exactly the forgery "win" the audit reports); inventing
        // a forged id out of thin air is not.
        DUALRAD_CHECK(byzrt->may_transmit(v, tok),
                      "process sent a forged token it never received");
      } else {
        DUALRAD_CHECK(tok >= kNoToken && tok <= static_cast<TokenId>(k),
                      "process sent an unknown token id");
        DUALRAD_CHECK(tok == kNoToken ||
                          holds[static_cast<std::size_t>(tok - 1) * un + uv],
                      "process sent a broadcast token without holding it");
      }
      is_sender[uv] = true;
      sent_msg[uv] = action.message;
      senders.push_back(v);
    }
    if (byzrt) {
      // Byzantine behaviors rewrite the sender set before anything observes
      // it (the node scan already produced ascending senders).
      byz_removed.clear();
      byz_added.clear();
      byzrt->rewrite_senders(round, senders, sent_msg, byz_removed, byz_added);
      for (const NodeId v : byz_removed) {
        is_sender[static_cast<std::size_t>(v)] = false;
      }
      for (const NodeId v : byz_added) {
        is_sender[static_cast<std::size_t>(v)] = true;
      }
    }
    result.total_sends += senders.size();
    end_phase(obs::Phase::Poll);

    // Adversary chooses which unreliable links fire.
    AdversaryView view = AdversaryView::of(net, result.process_of_node,
                                           covered, covered_delta, round);
    sink.begin_round(senders.size());
    adversary.choose_unreliable_reach(view, senders, sink);
    sink.seal();
    end_phase(obs::Phase::Adversary);

    RoundRecord record;
    if (record_trace) record.round = round;

    // Message propagation: sender itself + G out-neighbors + chosen extras.
    for (std::size_t i = 0; i < senders.size(); ++i) {
      const NodeId u = senders[i];
      const auto uu = static_cast<std::size_t>(u);
      const Message& m = sent_msg[uu];
      arrivals[uu].push_back(m);
      SenderRecord srec;
      if (record_trace) {
        srec.node = u;
        srec.message = m;
      }
      for (NodeId v : g.out_neighbors(u)) {
        arrivals[static_cast<std::size_t>(v)].push_back(m);
        if (record_trace) srec.reached.push_back(v);
      }
      for (NodeId v : sink.extras(i)) {
        DUALRAD_CHECK(gp.has_edge(u, v) && !g.has_edge(u, v),
                      "adversary chose a non-G'-only edge");
        arrivals[static_cast<std::size_t>(v)].push_back(m);
        if (record_trace) srec.reached.push_back(v);
      }
      if (record_trace) record.senders.push_back(std::move(srec));
      if (telemetry) {
        deliveries += 1 + static_cast<std::uint64_t>(g.out_degree(u)) +
                      sink.extras(i).size();
      }
    }
    end_phase(obs::Phase::Propagate);

    // Receptions under the configured collision rule.
    std::uint32_t collision_events = 0;
    for (NodeId v = 0; v < n; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      const auto& arr = arrivals[uv];
      // A collision event is a (node, round) pair at which the process
      // observes a collision: >= 2 arrivals, except that under CR2-CR4 a
      // sender deterministically hears its own message, so no collision
      // occurs at sender nodes there (CR1 counts senders too).
      if (arr.size() >= 2 &&
          (config.rule == CollisionRule::CR1 || !is_sender[uv])) {
        ++collision_events;
      }
      Reception rec = Reception::silence();
      switch (config.rule) {
        case CollisionRule::CR1:
          if (arr.size() == 1) {
            rec = Reception::of(arr.front());
          } else if (arr.size() >= 2) {
            rec = Reception::collision();
          }
          break;
        case CollisionRule::CR2:
        case CollisionRule::CR3:
        case CollisionRule::CR4:
          if (is_sender[uv]) {
            rec = Reception::of(sent_msg[uv]);
          } else if (arr.size() == 1) {
            rec = Reception::of(arr.front());
          } else if (arr.size() >= 2) {
            if (config.rule == CollisionRule::CR2) {
              rec = Reception::collision();
            } else if (config.rule == CollisionRule::CR3) {
              rec = Reception::silence();
            } else {
              rec = adversary.resolve_cr4(view, v, arr);
              DUALRAD_CHECK(!rec.is_collision(),
                            "CR4 resolution cannot be collision notification");
              DUALRAD_CHECK(!rec.is_message() ||
                                std::find(arr.begin(), arr.end(),
                                          *rec.message) != arr.end(),
                            "CR4 resolution must pick an arriving message");
            }
          }
          break;
      }
      receptions[uv] = rec;
    }
    result.total_collision_events += collision_events;
    end_phase(obs::Phase::Deliver);

    // Deliver; wake sleeping processes on message reception (async start).
    for (NodeId v = 0; v < n; ++v) {
      const auto uv = static_cast<std::size_t>(v);
      const Reception& rec = receptions[uv];
      if (awake[uv]) {
        proc_at[uv]->on_receive(round, rec);
      } else if (rec.is_message()) {
        proc_at[uv]->on_activate(round, rec.message);
        awake[uv] = true;
      }
      if (rec.has_token()) {
        if (byzrt && byz::ByzRuntime::is_forged(rec.message->token)) {
          // Forged tokens never touch covered/holds/token_first — the
          // engine's completion notion counts only environment-injected
          // tokens. Delivery provenance feeds SimResult::forged_tokens.
          byzrt->note_delivery(rec.message->token, v);
        } else {
          const auto t = static_cast<std::size_t>(rec.message->token - 1);
          if (!covered[uv]) {
            covered[uv] = 1;
            next_delta.push_back(v);  // node scan is ascending
          }
          if (!holds[t * un + uv]) {
            holds[t * un + uv] = true;
            result.token_first[t][uv] = round;
            ++held_count;
          }
        }
      }
    }

    // Round epilogue for stateful adversaries: this round's coverage delta,
    // with the covered flags already advanced.
    covered_delta.swap(next_delta);
    next_delta.clear();
    end_phase(obs::Phase::Deliver);
    view.newly_covered = covered_delta;
    adversary.on_round_end(view);
    end_phase(obs::Phase::Adversary);

    if (telemetry) {
      obs::RoundCounters& c = telemetry->counters();
      c.polled = polled;
      c.senders = senders.size();
      c.deliveries = deliveries;
      c.collisions = collision_events;
      c.reach_appends = sink.total();
      c.newly_covered = covered_delta.size();
      telemetry->end_round();
    }

    if (record_trace) {
      record.receptions.assign(receptions.begin(), receptions.end());
      result.trace.append_compressed(record);
    }

    if (held_count == all_held && !result.completed) {
      result.completed = true;
      result.completion_round = round;
      if (config.stop_on_completion) break;
    }
  }

  if (telemetry) telemetry->end_execution();

  if (byzrt) result.forged_tokens = byzrt->finalize();

  result.first_token = result.token_first.front();
  for (NodeId v = 0; v < n; ++v) {
    const auto uv = static_cast<std::size_t>(v);
    for (ProcessMetric& m : proc_at[uv]->final_metrics()) {
      result.process_metrics.push_back(ProcessMetricSample{
          v, result.process_of_node[uv], std::move(m.name), m.value});
    }
  }
  return result;
}

}  // namespace dualrad
