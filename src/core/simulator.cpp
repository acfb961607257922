#include "core/simulator.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "byz/runtime.hpp"
#include "core/rng.hpp"
#include "graph/graph.hpp"
#include "obs/telemetry.hpp"

namespace dualrad {

/// The sparse CSR round engine.
///
/// The dense reference engine (core/reference_engine.cpp) spends O(n) per
/// round scanning every node four times. This engine makes a round cost
/// O(#polled senders + #deliveries) instead:
///
///  * **CSR adjacency snapshots** — message propagation walks the network's
///    frozen `g_csr()` rows (the builder's insertion order, so arrival order
///    is bit-identical to the reference); `g_prime_csr()` backs the
///    G'-membership validation of adversary reach choices.
///  * **Epoch-stamped arrival slots** — one packed slot per node: the
///    arrival round, a saturating arrival count, and the first arriving
///    sender (whose message is sent_msg[sender], so deposits copy no
///    Message). A `touched` list enumerates exactly the nodes reached this
///    round, so nothing is ever cleared; a slot is stale iff its round
///    field is old. Under CR4 only, nodes with >= 2 arrivals spill the full
///    arrival list (the adversary's resolution picks among them) into a
///    per-node vector; other rules never allocate the spill arrays.
///  * **Calendar send scheduling** — instead of polling every awake process
///    every round, the engine keeps a bucket-ring calendar keyed by
///    Process::next_send_round. A process is polled only at rounds its hint
///    admits a send; the default hint ("maybe next round") degenerates to
///    per-round polling, so arbitrary processes remain exactly as observable
///    as under the reference engine. Any state transition (activation or a
///    delivered reception) reschedules the process.
///  * **Reception elision** — each process's Process::hearing() hint,
///    re-read after every activation and delivered reception, names the
///    receptions that can still change it. NonSilence processes skip
///    silence; None processes (a broadcast process holding the token) leave
///    the delivery loop entirely: no on_receive, no replan, no
///    process-object prefetch. Only All processes stay on the reference
///    engine's per-round delivery, via a `noisy` list. Token bookkeeping
///    (covered / holds / token_first, Byzantine provenance) stays
///    engine-side and sees every reception.
///  * **Straight-line serial round** — poll, adversary, propagate, deliver
///    and the round epilogue run in one pass each on the calling thread.
///    Calendar pops are radix-sorted before polling, so process objects,
///    plans and token flags are read front to back, and the sender list
///    comes out ascending as a subsequence of the sorted pops.
///    Deliveries replan straight into the calendar and append new coverage
///    straight to the next round's delta. Parallelism lives one level up,
///    across trials (campaign/engine.hpp): an earlier intra-trial sharded
///    kernel measured 0.47-0.93x of this loop on four real cores.
///
/// Everything observable — process call sequences modulo elided no-op
/// receptions, adversary call order (one sealed ReachSink batch per round with
/// senders ascending; CR4 resolutions in ascending node order, exactly the
/// reference's node scan; on_round_end with the round's ascending coverage
/// delta), RNG streams, SimResult including traces — is bit-identical
/// to the reference engine; tests/test_engine_equivalence.cpp enforces this
/// across random small executions and the whole builtin campaign grid.

namespace {

/// Bucket-ring calendar of planned next-send rounds. planned_ is
/// authoritative; bucket entries are hints and may be stale (a node is
/// consulted at round r only if planned_[node] == r). Capacity grows so
/// that every live entry's round is < current + buckets (one ring lap),
/// which guarantees a bucket holds only current-round or stale entries
/// whenever it is visited.
class SendCalendar {
 public:
  explicit SendCalendar(std::size_t n)
      : planned_(n, kNever), buckets_(kInitialBuckets) {}

  void plan(NodeId v, Round r, Round now) {
    auto& slot = planned_[static_cast<std::size_t>(v)];
    if (r == kNever) {
      slot = kNever;
      return;
    }
    // A hint at or before the current round would land in an
    // already-drained bucket and silently never fire (or wrap grow()).
    DUALRAD_CHECK(r > now, "next_send_round hinted a non-future round");
    if (slot == r) return;  // live entry already queued for r
    slot = r;
    if (static_cast<std::size_t>(r - now) >= buckets_.size()) grow(r, now);
    buckets_[static_cast<std::size_t>(r) & (buckets_.size() - 1)].push_back(v);
  }

  /// Nodes whose plan names `round`, deduplicated; the bucket is drained.
  /// Returns the number of bucket entries scanned (live + stale) — the
  /// telemetry layer's calendar-pressure counter.
  std::size_t take_due(Round round, std::vector<NodeId>& out) {
    auto& bucket =
        buckets_[static_cast<std::size_t>(round) & (buckets_.size() - 1)];
    const std::size_t scanned = bucket.size();
    for (NodeId v : bucket) {
      if (planned_[static_cast<std::size_t>(v)] == round) {
        out.push_back(v);
        // A duplicate entry for the same round must not poll twice; mark
        // the plan consumed (the poll loop replans from round + 1).
        planned_[static_cast<std::size_t>(v)] = kNever;
      }
    }
    bucket.clear();
    return scanned;
  }

 private:
  static constexpr std::size_t kInitialBuckets = 64;

  void grow(Round r, Round now) {
    std::size_t size = buckets_.size();
    while (static_cast<std::size_t>(r - now) >= size) size *= 2;
    buckets_.assign(size, {});
    for (std::size_t v = 0; v < planned_.size(); ++v) {
      if (planned_[v] != kNever) {
        buckets_[static_cast<std::size_t>(planned_[v]) & (size - 1)].push_back(
            static_cast<NodeId>(v));
      }
    }
  }

  std::vector<Round> planned_;
  std::vector<std::vector<NodeId>> buckets_;
};

/// Ascending sort of a round's calendar pops: an LSD radix sort on 8-bit
/// digits of the (non-negative) node ids, one pass per digit that ids below
/// n can have, all histograms taken in one read; a pass whose digit is the
/// same for every id is skipped. The scratch buffer is reused across rounds.
/// Lists too short to repay the 256-bucket histograms go to std::sort: on
/// random ids below 10^6 (three digits) the two cross over at about 32 ids,
/// and at the ~2 900 pops of an average layered-1m round the radix sort
/// takes 24 us against std::sort's 194 us (4-vCPU Xeon VM, g++ 12 -O3).
class NodeIdSorter {
 public:
  static constexpr std::size_t kMinRadix = 32;

  explicit NodeIdSorter(NodeId n) {
    for (auto top = static_cast<std::uint32_t>(n - 1); top != 0; top >>= 8) {
      ++digits_;
    }
  }

  void sort(std::vector<NodeId>& ids) {
    if (ids.size() < kMinRadix) {
      std::sort(ids.begin(), ids.end());
      return;
    }
    std::array<std::array<std::uint32_t, 256>, 4> count{};
    for (const NodeId v : ids) {
      const auto key = static_cast<std::uint32_t>(v);
      for (int d = 0; d < digits_; ++d) ++count[d][(key >> (8 * d)) & 0xFF];
    }
    scratch_.resize(ids.size());
    for (int d = 0; d < digits_; ++d) {
      auto& offset = count[d];
      const int shift = 8 * d;
      if (offset[(static_cast<std::uint32_t>(ids.front()) >> shift) & 0xFF] ==
          ids.size()) {
        continue;
      }
      std::uint32_t sum = 0;
      for (std::uint32_t& c : offset) sum += std::exchange(c, sum);
      for (const NodeId v : ids) {
        scratch_[offset[(static_cast<std::uint32_t>(v) >> shift) & 0xFF]++] =
            v;
      }
      ids.swap(scratch_);
    }
  }

 private:
  int digits_ = 0;
  std::vector<NodeId> scratch_;
};

}  // namespace

Simulator::Simulator(const DualGraph& net, ProcessFactory factory,
                     Adversary& adversary, SimConfig config)
    : net_(net),
      factory_(std::move(factory)),
      adversary_(adversary),
      config_(config) {
  DUALRAD_REQUIRE(config_.max_rounds >= 1, "max_rounds must be positive");
  DUALRAD_REQUIRE(static_cast<bool>(factory_), "process factory must be set");
}

SimResult run_broadcast(const DualGraph& net, const ProcessFactory& factory,
                        Adversary& adversary, const SimConfig& config) {
  Simulator sim(net, factory, adversary, config);
  return sim.run();
}

void validate_token_sources(NodeId n, const std::vector<NodeId>& sources) {
  DUALRAD_REQUIRE(
      sources.size() < static_cast<std::size_t>(byz::kForgedTokenBase),
      "too many token sources: legitimate token ids would reach the "
      "forged-token band (byz::kForgedTokenBase)");
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const NodeId s = sources[i];
    DUALRAD_REQUIRE(s >= 0 && s < n,
                    "token source out of range: token_sources[" +
                        std::to_string(i) + "] = " + std::to_string(s) +
                        " is not a node of the " + std::to_string(n) +
                        "-node network");
    DUALRAD_REQUIRE(!seen[static_cast<std::size_t>(s)],
                    "token sources must be distinct: node " +
                        std::to_string(s) + " appears again at token_sources[" +
                        std::to_string(i) + "]");
    seen[static_cast<std::size_t>(s)] = true;
  }
}

SimResult Simulator::run() {
  const NodeId n = net_.node_count();
  const auto un = static_cast<std::size_t>(n);

  // Flat adjacency snapshots for the hot path, frozen once per network (not
  // per execution). csr_g drives propagation; csr_gp backs the
  // G'-membership validation of adversary reach choices.
  const CsrGraph& csr_g = net_.g_csr();
  const CsrGraph& csr_gp = net_.g_prime_csr();

  adversary_.on_execution_start(net_);

  SimResult result;
  result.process_of_node = adversary_.assign_processes(net_);
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
        factory_(pid, n, mix_seed(config_.seed, static_cast<std::uint64_t>(pid)));
    DUALRAD_CHECK(proc_at[static_cast<std::size_t>(v)] != nullptr,
                  "factory returned null process");
    DUALRAD_CHECK(proc_at[static_cast<std::size_t>(v)]->id() == pid,
                  "factory produced process with wrong id");
  }

  // Token sources: the classic problem injects kBroadcastToken at the
  // network source; multi-message executions inject token i+1 at
  // token_sources[i] (all distinct).
  std::vector<NodeId> sources = config_.token_sources;
  if (sources.empty()) sources.push_back(net_.source());
  const auto k = sources.size();
  validate_token_sources(n, sources);

  // Byzantine node faults (byz/runtime.hpp): constructed after the adversary
  // hooks above so an adaptive adversary's on_execution_start reset is
  // already applied when the runtime syncs the plan's baseline.
  std::optional<byz::ByzRuntime> byzrt;
  if (config_.byzantine != nullptr) {
    byzrt.emplace(*config_.byzantine, result.process_of_node);
  }
  std::vector<NodeId> byz_removed;
  std::vector<NodeId> byz_added;

  // covered[v]: the process at v holds at least one token (what the
  // adversary view exposes); holds[t*n + v]: it holds token id t+1.
  NodeFlags covered(un, 0);
  NodeFlags holds(k * un, 0);
  result.token_first.assign(k, std::vector<Round>(un, kNever));
  // covered_delta: nodes first covered by the previous round's deliveries
  // (the AdversaryView::newly_covered span), ascending; next_delta collects
  // the running round's additions in delivery order.
  std::vector<NodeId> covered_delta;
  std::vector<NodeId> next_delta;

  // Scheduling state. `hears[v]` packs the Hearing hint of the process at
  // v (low bits; re-read after every activation and delivered reception)
  // with kAsleep until it wakes and kListed while it sits in `noisy`, the
  // awake All nodes that get the reference engine's per-round silence.
  // A node whose hint leaves All drops out of `noisy` at its next silence
  // pass.
  constexpr std::uint8_t kHintMask = 3;
  constexpr std::uint8_t kAsleep = 4;
  constexpr std::uint8_t kListed = 8;
  constexpr auto kAll = static_cast<std::uint8_t>(Hearing::All);
  constexpr auto kNonSilence = static_cast<std::uint8_t>(Hearing::NonSilence);
  constexpr auto kNone = static_cast<std::uint8_t>(Hearing::None);
  SendCalendar calendar(un);
  NodeFlags hears(un, kAsleep);
  std::vector<NodeId> noisy;
  // Caches p.hearing() for the awake node v (clearing kAsleep) and lists v
  // in `noisy` if it hears All and is not listed yet.
  const auto read_hint = [&](NodeId v, const Process& p) {
    std::uint8_t& h = hears[static_cast<std::size_t>(v)];
    const auto hint = static_cast<std::uint8_t>(p.hearing());
    h = static_cast<std::uint8_t>((h & kListed) | hint);
    if (hint == kAll && (h & kListed) == 0) {
      h |= kListed;
      noisy.push_back(v);
    }
  };
  const auto activate_bookkeeping = [&](NodeId v, Round now) {
    const Process& p = *proc_at[static_cast<std::size_t>(v)];
    read_hint(v, p);
    calendar.plan(v, p.next_send_round(now + 1), now);
  };

  // Environment input: each token arrives at its source process prior to
  // round 1 (Section 3).
  std::size_t held_count = 0;
  for (std::size_t t = 0; t < k; ++t) {
    const auto src = static_cast<std::size_t>(sources[t]);
    const Message env_msg{/*token=*/static_cast<TokenId>(t + 1),
                          /*origin=*/kInvalidProcess,
                          /*round_tag=*/0, /*payload=*/0};
    covered[src] = 1;
    holds[t * un + src] = 1;
    result.token_first[t][src] = 0;
    ++held_count;
    proc_at[src]->on_activate(0, env_msg);
    activate_bookkeeping(sources[t], 0);
    covered_delta.push_back(sources[t]);
  }
  std::sort(covered_delta.begin(), covered_delta.end());
  if (config_.start == StartRule::Synchronous) {
    for (NodeId v = 0; v < n; ++v) {
      if ((hears[static_cast<std::size_t>(v)] & kAsleep) == 0) continue;
      proc_at[static_cast<std::size_t>(v)]->on_activate(0, std::nullopt);
      activate_bookkeeping(v, 0);
    }
  }

  result.trace.level = config_.trace;
  // A traced round is built as a scratch record, then delta-encoded onto
  // the blob (core/trace.cpp).
  const bool record_trace = config_.trace == TraceLevel::Compressed;

  // Poll and deliver walk node lists whose process objects are scattered
  // heap cells far beyond the caches. Two-stage prefetch: the proc_at slot
  // of the node 2 * kAhead positions on, then the object of the node kAhead
  // on (its slot was fetched kAhead iterations ago). On layered-1m/benign
  // (4-vCPU Xeon VM) this cut deliver by ~0.4 s and poll by ~0.25 s per
  // trial. Deliver (`skip_final`) fetches nothing for None nodes, which it
  // never calls.
  constexpr std::size_t kAhead = 16;
  const auto prefetch_process = [&](const std::vector<NodeId>& nodes,
                                    std::size_t i, bool skip_final) {
    const auto wanted = [&](std::size_t at) {
      return !skip_final || (hears[at] & kHintMask) != kNone;
    };
    if (i + 2 * kAhead < nodes.size()) {
      const auto far = static_cast<std::size_t>(nodes[i + 2 * kAhead]);
      if (wanted(far)) __builtin_prefetch(&proc_at[far]);
    }
    if (i + kAhead < nodes.size()) {
      const auto near = static_cast<std::size_t>(nodes[i + kAhead]);
      if (wanted(near)) __builtin_prefetch(proc_at[near].get());
    }
  };

  // Reusable per-round buffers. The ReachSink is handed to the adversary
  // every round with capacity retained — no per-round reach allocations.
  std::vector<NodeId> due;       // calendar pops, sorted before polling
  NodeIdSorter sorter(n);
  std::vector<NodeId> senders;   // ascending: a subsequence of `due`
  std::vector<NodeId> touched;   // nodes with >= 1 arrival, deposit order
  std::vector<NodeId> collided;  // nodes with >= 2 arrivals, deposit order
  ReachSink sink;
  std::vector<Message> sent_msg(un);
  NodeFlags is_sender(un, 0);
  // Arrival slot per node: `mark` packs (round << 2) | count with count
  // saturating at 3 (the model only distinguishes 0 / 1 / >= 2), `from` is
  // the first arriving sender (its message is sent_msg[from], so the slot
  // fits one cache line and deposits copy no Message). A slot is live iff
  // its round field equals the current round — nothing is ever cleared.
  struct ArrivalSlot {
    std::uint64_t mark = 0;
    NodeId from = kInvalidNode;
  };
  std::vector<ArrivalSlot> arrival(un);
  // CR4 only: the full arrival list of every collided node (the adversary's
  // resolution picks among them) and that resolution per collided
  // non-sender. Other rules never read them, so they stay empty.
  const bool cr4 = config_.rule == CollisionRule::CR4;
  std::vector<std::vector<Message>> multi(cr4 ? un : 0);
  std::vector<Reception> rec_of(cr4 ? un : 0);
  const Reception kSilence = Reception::silence();

  const std::size_t all_held = k * un;

  // Telemetry (obs/telemetry.hpp) is strictly out-of-band: it reads list
  // sizes the loop already computed and samples a monotonic clock, so the
  // SimResult is bit-identical with or without it. Every telemetry statement
  // below — including the clock samples — branches on this null check.
  obs::RoundTelemetry* const telemetry = config_.telemetry;
  if (telemetry) telemetry->begin_execution(n);

  for (Round round = 1; round <= config_.max_rounds; ++round) {
    result.rounds_executed = round;
    if (telemetry) telemetry->begin_round(round);
    std::uint64_t phase_start = telemetry ? obs::monotonic_ns() : 0;
    const auto end_phase = [&](obs::Phase phase) {
      if (telemetry == nullptr) return;
      const std::uint64_t now = obs::monotonic_ns();
      telemetry->add_phase_ns(phase, now - phase_start);
      phase_start = now;
    };

    // --- Poll: only processes whose hint admits a send this round, in
    // ascending node order — the reference engine's node scan, and the
    // order the adversary interface (and stateful adversaries' RNG
    // streams) see senders in. ---
    due.clear();
    const std::size_t calendar_scanned = calendar.take_due(round, due);
    sorter.sort(due);
    senders.clear();
    for (std::size_t i = 0; i < due.size(); ++i) {
      prefetch_process(due, i, /*skip_final=*/false);
      const NodeId v = due[i];
      const auto uv = static_cast<std::size_t>(v);
      const Action action = proc_at[uv]->next_action(round);
      // Replan immediately; a reception later this round replans again.
      calendar.plan(v, proc_at[uv]->next_send_round(round + 1), round);
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
      is_sender[uv] = 1;
      sent_msg[uv] = action.message;
      senders.push_back(v);
    }
    if (byzrt) {
      // Byzantine behaviors rewrite the sender set before anything observes
      // it: the adversary, propagation, traces, and total_sends all see the
      // post-fault senders, identically in both engines.
      byz_removed.clear();
      byz_added.clear();
      byzrt->rewrite_senders(round, senders, sent_msg, byz_removed, byz_added);
      for (const NodeId v : byz_removed) {
        is_sender[static_cast<std::size_t>(v)] = 0;
      }
      for (const NodeId v : byz_added) {
        is_sender[static_cast<std::size_t>(v)] = 1;
      }
    }
    result.total_sends += senders.size();
    end_phase(obs::Phase::Poll);

    // Adversary chooses which unreliable links fire.
    AdversaryView view = AdversaryView::of(net_, result.process_of_node,
                                           covered, covered_delta, round);
    sink.begin_round(senders.size());
    adversary_.choose_unreliable_reach(view, senders, sink);
    sink.seal();
    end_phase(obs::Phase::Adversary);

    RoundRecord record;
    if (record_trace) record.round = round;

    // --- Propagation: sender itself + G out-neighbors + chosen extras, in
    // ascending sender order (the reference's arrival order, which fixes
    // `from` and the spilled CR4 lists). ---
    const auto live = static_cast<std::uint64_t>(round) << 2;
    touched.clear();
    collided.clear();
    const auto deposit = [&](NodeId v, NodeId sender) {
      const auto uv = static_cast<std::size_t>(v);
      ArrivalSlot& slot = arrival[uv];
      if ((slot.mark & ~std::uint64_t{3}) != live) {
        slot.mark = live | 1;
        slot.from = sender;
        touched.push_back(v);
        return;
      }
      if ((slot.mark & 3) == 1) {
        collided.push_back(v);
        if (cr4) {
          multi[uv].clear();
          multi[uv].push_back(sent_msg[static_cast<std::size_t>(slot.from)]);
        }
      }
      if ((slot.mark & 3) < 3) ++slot.mark;
      if (cr4) multi[uv].push_back(sent_msg[static_cast<std::size_t>(sender)]);
    };
    std::size_t deliveries = 0;
    for (std::size_t i = 0; i < senders.size(); ++i) {
      const NodeId u = senders[i];
      const auto row = csr_g.row(u);
      const auto extras = sink.extras(i);
      deposit(u, u);
      for (const NodeId v : row) deposit(v, u);
      for (const NodeId v : extras) {
        DUALRAD_CHECK(v >= 0 && v < n && csr_gp.contains(u, v) &&
                          !csr_g.contains(u, v),
                      "adversary chose a non-G'-only edge");
        deposit(v, u);
      }
      deliveries += 1 + row.size() + extras.size();
      if (record_trace) {
        SenderRecord srec;
        srec.node = u;
        srec.message = sent_msg[static_cast<std::size_t>(u)];
        srec.reached.assign(row.begin(), row.end());
        srec.reached.insert(srec.reached.end(), extras.begin(), extras.end());
        record.senders.push_back(std::move(srec));
      }
    }
    end_phase(obs::Phase::Propagate);

    // --- Receptions under the configured collision rule (touched only:
    // everyone else hears silence). CR4 collisions are resolved in a second
    // pass, in ascending node order — the order the reference engine's node
    // scan consults the adversary in. ---
    std::uint32_t collision_events = 0;
    for (const NodeId v : collided) {
      // Collision events are what processes observe: under CR2-CR4 a
      // sender deterministically hears its own message, so no collision
      // occurs at sender nodes there (CR1 counts senders too).
      if (config_.rule == CollisionRule::CR1 ||
          !is_sender[static_cast<std::size_t>(v)]) {
        ++collision_events;
      }
    }
    result.total_collision_events += collision_events;
    if (cr4 && !collided.empty()) {
      std::sort(collided.begin(), collided.end());
      for (const NodeId v : collided) {
        const auto uv = static_cast<std::size_t>(v);
        if (is_sender[uv]) continue;
        Reception rec = adversary_.resolve_cr4(view, v, multi[uv]);
        DUALRAD_CHECK(!rec.is_collision(),
                      "CR4 resolution cannot be collision notification");
        DUALRAD_CHECK(!rec.is_message() ||
                          std::find(multi[uv].begin(), multi[uv].end(),
                                    *rec.message) != multi[uv].end(),
                      "CR4 resolution must pick an arriving message");
        rec_of[uv] = rec;
      }
    }

    // --- Fused reception + delivery over the touched set, then the round's
    // silence for the noisy nodes. Receptions are pure functions of this
    // round's (fixed) arrivals and sender flags — CR4 resolutions were
    // fixed above, before any state change, exactly like the reference
    // engine's two-pass order — so computing and delivering per node in one
    // pass is equivalent. Processes activated this round consume their
    // reception through on_activate, so only nodes noisy *before* this
    // round's activations get the silence delivery; that pass also drops
    // the nodes whose hint has left All. ---
    if (record_trace) record.receptions.assign(un, kSilence);
    const std::size_t noisy_before = noisy.size();
    std::size_t replans = due.size();
    const auto replan = [&](NodeId v, const Process& p) {
      calendar.plan(v, p.next_send_round(round + 1), round);
      ++replans;
    };
    for (std::size_t i = 0; i < touched.size(); ++i) {
      prefetch_process(touched, i, /*skip_final=*/true);
      const NodeId v = touched[i];
      const auto uv = static_cast<std::size_t>(v);
      const ArrivalSlot& slot = arrival[uv];
      const std::uint32_t count = slot.mark & 3;
      const auto first_msg = [&]() -> const Message& {
        return sent_msg[static_cast<std::size_t>(slot.from)];
      };
      Reception rec;
      switch (config_.rule) {
        case CollisionRule::CR1:
          rec = count == 1 ? Reception::of(first_msg())
                           : Reception::collision();
          break;
        case CollisionRule::CR2:
        case CollisionRule::CR3:
        case CollisionRule::CR4:
          if (is_sender[uv]) {
            rec = Reception::of(sent_msg[uv]);
          } else if (count == 1) {
            rec = Reception::of(first_msg());
          } else if (config_.rule == CollisionRule::CR2) {
            rec = Reception::collision();
          } else if (config_.rule == CollisionRule::CR3) {
            rec = Reception::silence();
          } else {
            rec = rec_of[uv];  // CR4: the adversary's resolution
          }
          break;
      }
      const std::uint8_t h = hears[uv] & (kHintMask | kAsleep);
      if (h == kAll || (h == kNonSilence && !rec.is_silence())) {
        Process& p = *proc_at[uv];
        p.on_receive(round, rec);
        read_hint(v, p);
        replan(v, p);
      } else if (h == kAsleep && rec.is_message()) {
        Process& p = *proc_at[uv];
        p.on_activate(round, rec.message);
        read_hint(v, p);
        replan(v, p);
      }
      if (rec.has_token()) {
        if (byzrt && byz::ByzRuntime::is_forged(rec.message->token)) {
          // Forged tokens never touch covered/holds/token_first — the
          // engine's completion notion counts only environment-injected
          // tokens.
          byzrt->note_delivery(rec.message->token, v);
        } else {
          const auto t = static_cast<std::size_t>(rec.message->token - 1);
          if (!covered[uv]) {
            covered[uv] = 1;
            next_delta.push_back(v);
          }
          if (!holds[t * un + uv]) {
            holds[t * un + uv] = 1;
            result.token_first[t][uv] = round;
            ++held_count;
          }
        }
      }
      if (record_trace) record.receptions[uv] = std::move(rec);
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < noisy_before; ++i) {
      const NodeId v = noisy[i];
      const auto uv = static_cast<std::size_t>(v);
      if ((hears[uv] & kHintMask) != kAll) {
        hears[uv] &= static_cast<std::uint8_t>(~kListed);
        continue;
      }
      noisy[kept++] = v;
      if ((arrival[uv].mark & ~std::uint64_t{3}) == live) continue;  // touched
      Process& p = *proc_at[uv];
      p.on_receive(round, kSilence);
      read_hint(v, p);
      replan(v, p);
    }
    noisy.erase(noisy.begin() + static_cast<std::ptrdiff_t>(kept),
                noisy.begin() + static_cast<std::ptrdiff_t>(noisy_before));
    // This round's coverage delta, ascending: the reference engine's node
    // scan is the on_round_end contract.
    std::sort(next_delta.begin(), next_delta.end());
    covered_delta.swap(next_delta);
    next_delta.clear();
    end_phase(obs::Phase::Deliver);

    // Round epilogue for stateful adversaries.
    view.newly_covered = covered_delta;
    adversary_.on_round_end(view);
    end_phase(obs::Phase::Adversary);

    if (telemetry) {
      obs::RoundCounters& c = telemetry->counters();
      c.polled = due.size();
      c.senders = senders.size();
      c.deliveries = deliveries;
      c.collisions = collision_events;
      c.calendar_scanned = calendar_scanned;
      c.replans = replans;
      c.reach_appends = sink.total();
      c.newly_covered = covered_delta.size();
      telemetry->end_round();
    }

    if (record_trace) result.trace.append_compressed(record);

    for (const NodeId v : senders) is_sender[static_cast<std::size_t>(v)] = 0;

    if (held_count == all_held && !result.completed) {
      result.completed = true;
      result.completion_round = round;
      if (config_.stop_on_completion) break;
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
