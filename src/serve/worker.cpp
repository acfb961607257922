#include "serve/worker.hpp"

#include <unistd.h>

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "campaign/engine.hpp"
#include "campaign/export.hpp"
#include "campaign/jsonl.hpp"
#include "core/rng.hpp"
#include "serve/faultline.hpp"
#include "serve/wire.hpp"

namespace dualrad::serve {

namespace jsonl = campaign::jsonl;

namespace {

/// Splice row fields into a typed wire message: take the canonical JSONL row
/// and graft `"type":"row","unit":N` onto the front of the object, so the
/// server can hand the payload straight to the canonical row parser.
[[nodiscard]] std::string row_payload(std::uint64_t unit,
                                      const campaign::TrialRow& row) {
  std::string json = campaign::trials_to_jsonl({row});
  json.pop_back();  // trailing newline
  return "{\"type\":\"row\",\"unit\":" + std::to_string(unit) + "," +
         json.substr(1);
}

[[nodiscard]] std::string telemetry_payload(const campaign::TelemetryRow& row) {
  std::string json = campaign::telemetry_to_jsonl({row});
  json.pop_back();
  return "{\"type\":\"telemetry\"," + json.substr(1);
}

void sleep_checking_stop(std::chrono::milliseconds total,
                         const std::atomic<bool>* stop) {
  using namespace std::chrono;
  auto remaining = total;
  while (remaining.count() > 0) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) return;
    const auto chunk = std::min<milliseconds>(remaining, milliseconds(50));
    // Chunked cooperative wait; callers pass bounded delays
    // (reconnect_backoff_delay / injected stalls). lint: backoff-ok
    std::this_thread::sleep_for(chunk);
    remaining -= chunk;
  }
}

/// FNV-1a over the worker id, to key its private jitter stream.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

constexpr std::uint64_t kBackoffDomain = 0xB0FF0E55ull;
/// Give up (throw) after this long without a successful connection.
constexpr auto kReconnectWindow = std::chrono::seconds(15);
/// Receive timeout for each expected reply.
constexpr int kReplyTimeoutMs = 30'000;

/// One logical session with the coordinator, surviving reconnects. request()
/// is at-least-once: a dropped connection mid-request reconnects (fresh
/// hello handshake under the same worker id) and resends the same payload.
/// send() is at-most-once; the seal catches the rows it loses.
class Session {
 public:
  Session(const std::function<int()>& connect, const WorkerOptions& options,
          WorkerStats& stats)
      : connect_(connect), options_(options), stats_(stats) {
    worker_id_ = options.worker_id;
  }

  ~Session() { drop(); }

  [[nodiscard]] const std::string& worker_id() const { return worker_id_; }

  [[nodiscard]] bool stop_requested() const {
    return options_.stop != nullptr &&
           options_.stop->load(std::memory_order_relaxed);
  }

  /// Identifies the current connection (0 while disconnected): a reply can
  /// only be read on the connection its request went out on.
  [[nodiscard]] std::uint64_t connection() const {
    return fd_ >= 0 ? connections_ : 0;
  }

  /// Send `payload` and return its reply; nullopt only on stop request.
  /// Throws std::runtime_error when the reconnect window is exhausted.
  [[nodiscard]] std::optional<std::string> request(const std::string& payload) {
    for (;;) {
      if (stop_requested()) return std::nullopt;
      if (!send(payload)) continue;
      if (std::optional<std::string> reply = receive()) return reply;
    }
  }

  /// Send one frame, connecting first if needed. On failure the connection
  /// is dropped, so the next frame reconnects; the frame itself is not
  /// retried. False also on stop request.
  bool send(const std::string& payload) {
    if (stop_requested() || !ensure_connected()) return false;
    if (send_frame(fd_, payload)) return true;
    drop();
    return false;
  }

  /// The next reply on the current connection; nullopt (connection dropped)
  /// on failure or when not connected.
  [[nodiscard]] std::optional<std::string> receive() {
    if (fd_ < 0) return std::nullopt;
    bool timed_out = false;
    std::optional<std::string> reply =
        recv_frame(fd_, reader_, kReplyTimeoutMs, &timed_out);
    if (!reply.has_value()) {
      if (reader_.corrupt() && options_.log) {
        // Reconnect-only recovery: the drop() below discards the poisoned
        // reader with the connection (wire.hpp FrameReader contract).
        options_.log("[worker " + worker_id_ + "] dropping connection: " +
                     reader_.corrupt_reason());
      }
      drop();
    }
    return reply;
  }

 private:
  void drop() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    reader_ = FrameReader{};
  }

  /// Connect + hello handshake; false only on stop request. A fresh
  /// reconnect window opens each time we enter the disconnected state, and
  /// retries back off exponentially (bounded, deterministically jittered —
  /// reconnect_backoff_delay) instead of hammering a dead endpoint at a
  /// fixed cadence.
  [[nodiscard]] bool ensure_connected() {
    if (fd_ >= 0) return true;
    const auto deadline = std::chrono::steady_clock::now() + kReconnectWindow;
    for (std::uint64_t attempt = 0;; ++attempt) {
      if (stop_requested()) return false;
      const int fd = connect_();
      if (fd >= 0 && handshake(fd)) {
        fd_ = fd;
        if (connections_++ != 0) ++stats_.reconnects;
        return true;
      }
      if (fd >= 0) ::close(fd);
      if (std::chrono::steady_clock::now() >= deadline) {
        throw std::runtime_error(
            "dualrad: worker lost the coordinator (reconnect window "
            "exhausted)");
      }
      sleep_checking_stop(
          reconnect_backoff_delay(options_, worker_id_, attempt,
                                  lifetime_attempts_++),
          options_.stop);
    }
  }

  [[nodiscard]] bool handshake(int fd) {
    reader_ = FrameReader{};
    const std::string hello =
        "{\"type\":\"hello\",\"worker\":\"" + worker_id_ + "\"}";
    if (!send_frame(fd, hello)) return false;
    bool timed_out = false;
    const std::optional<std::string> reply =
        recv_frame(fd, reader_, kReplyTimeoutMs, &timed_out);
    if (!reply.has_value()) return false;
    if (jsonl::field(*reply, "type") != "welcome") return false;
    worker_id_ = std::string(jsonl::field(*reply, "worker"));
    return true;
  }

  const std::function<int()>& connect_;
  const WorkerOptions& options_;
  WorkerStats& stats_;
  std::string worker_id_;
  int fd_ = -1;
  FrameReader reader_;
  std::uint64_t connections_ = 0;  ///< successful connects so far
  std::uint64_t lifetime_attempts_ = 0;
};

}  // namespace

std::chrono::milliseconds reconnect_backoff_delay(
    const WorkerOptions& options, std::string_view worker_id,
    std::uint64_t episode_attempt, std::uint64_t lifetime_attempt) {
  const auto base = static_cast<double>(options.backoff_base.count());
  const auto cap = static_cast<double>(options.backoff_max.count());
  // Exponent is clamped before the shift so long outages can't overflow.
  const std::uint64_t exp = std::min<std::uint64_t>(episode_attempt, 20);
  const double nominal =
      std::min(cap, base * static_cast<double>(std::uint64_t{1} << exp));
  // Deterministic jitter in [0.5, 1.5): keyed by the worker id and the
  // lifetime attempt count, so a replayed run backs off identically while
  // two workers desynchronize (their ids differ).
  const CounterRng rng(mix_seed(kBackoffDomain, fnv1a64(worker_id)));
  const double jitter =
      0.5 + rng.uniform(static_cast<Round>(lifetime_attempt));
  const double ms = std::min(cap, nominal * jitter);
  return std::chrono::milliseconds(
      std::max<std::int64_t>(1, static_cast<std::int64_t>(ms)));
}

WorkerStats run_worker(const std::function<int()>& connect,
                       const std::vector<campaign::Scenario>& catalogue,
                       const WorkerOptions& options) {
  WorkerStats stats;
  Session session(connect, options, stats);

  std::map<std::string, const campaign::Scenario*, std::less<>> by_name;
  for (const campaign::Scenario& s : catalogue) by_name.emplace(s.name, &s);

  // Executors are cached per (scenario, master seed): network construction
  // dominates short trials, and every trial of a unit — and usually many
  // units — shares one.
  std::map<std::pair<std::string, std::uint64_t>, campaign::TrialExecutor>
      executors;

  const auto log = [&](const std::string& line) {
    if (options.log) options.log("[worker " + session.worker_id() + "] " + line);
  };

  // The last finished unit, whose seal reply is still unread: its fsync runs
  // on the coordinator while this worker computes the next unit.
  struct PendingSeal {
    std::string seal;
    std::vector<std::string> rows;  ///< the unit's row frames, for `resend`
    std::uint64_t connection = 0;   ///< where the seal went out; 0 = not sent
  };
  std::optional<PendingSeal> pending;

  // Read the pending seal's reply (or request it again when its connection
  // is gone) until it is acked; false on stop request.
  const auto finish_seal = [&]() -> bool {
    std::optional<std::string> reply;
    if (pending->connection != 0 &&
        pending->connection == session.connection()) {
      reply = session.receive();
    }
    for (;;) {
      if (!reply.has_value()) reply = session.request(pending->seal);
      if (!reply.has_value()) return false;
      const std::string_view type = jsonl::field(*reply, "type");
      if (type == "ack") break;
      if (type == "error") {
        throw std::runtime_error("dualrad: seal rejected: " +
                                 std::string(jsonl::field(*reply, "message")));
      }
      DUALRAD_REQUIRE(type == "resend",
                      "unexpected seal reply type: " + std::string(type));
      // Some row was lost with a connection: resend them all (the
      // coordinator dedupes the ones it has) and seal again.
      ++stats.resends;
      log("resending " + std::to_string(pending->rows.size()) + " row(s)");
      for (const std::string& row : pending->rows) session.send(row);
      reply.reset();
    }
    stats.trials += pending->rows.size();
    ++stats.units;
    pending.reset();
    return true;
  };

  for (;;) {
    if (session.stop_requested()) {
      stats.stopped = true;
      break;
    }
    std::optional<std::string> reply;
    if (pending.has_value()) {
      // Ask for the next unit ahead of the pending seal, and without a
      // long-poll, which would hold the seal back behind it; replies come in
      // request order, so the unit arrives before the seal's fsync ends.
      const std::string lease_now = "{\"type\":\"lease\",\"worker\":\"" +
                                    session.worker_id() +
                                    "\",\"long_poll\":false}";
      if (session.send(lease_now) && session.send(pending->seal)) {
        pending->connection = session.connection();
        reply = session.receive();
      }
      if (!reply.has_value() || jsonl::field(*reply, "type") != "unit") {
        if (!finish_seal()) {
          stats.stopped = true;
          break;
        }
        reply.reset();
      }
    }
    // The coordinator long-polls the lease, so `wait`/`idle` mean "ask
    // again now", never "sleep first".
    if (!reply.has_value()) {
      reply = session.request("{\"type\":\"lease\",\"worker\":\"" +
                              session.worker_id() + "\"}");
    }
    if (!reply.has_value()) {
      stats.stopped = true;
      break;
    }
    const std::string_view type = jsonl::field(*reply, "type");
    if (type == "done") break;
    if (type == "wait" || type == "idle") continue;
    if (type == "error") {
      throw std::runtime_error("dualrad: coordinator rejected lease: " +
                               std::string(jsonl::field(*reply, "message")));
    }
    DUALRAD_REQUIRE(type == "unit",
                    "unexpected lease reply type: " + std::string(type));

    const std::uint64_t unit = jsonl::to_u64(jsonl::field(*reply, "unit"));
    const std::string scenario_name(jsonl::field(*reply, "scenario"));
    const auto trial_begin =
        jsonl::to_int<std::uint32_t>(jsonl::field(*reply, "trial_begin"));
    const auto trial_end =
        jsonl::to_int<std::uint32_t>(jsonl::field(*reply, "trial_end"));
    const std::uint64_t master_seed =
        jsonl::to_u64(jsonl::field(*reply, "master_seed"));
    const bool telemetry =
        jsonl::field(*reply, "collect_telemetry") == "true";

    const auto scenario_it = by_name.find(scenario_name);
    DUALRAD_REQUIRE(scenario_it != by_name.end(),
                    "coordinator dispatched a scenario this worker does not "
                    "know: " + scenario_name);
    const auto exec_it =
        executors.try_emplace(std::make_pair(scenario_name, master_seed),
                              *scenario_it->second, master_seed)
            .first;
    const campaign::TrialExecutor& executor = exec_it->second;

    log("unit " + std::to_string(unit) + ": " + scenario_name + " trials [" +
        std::to_string(trial_begin) + "," + std::to_string(trial_end) + ")");

    campaign::TrialOptions trial_options;
    trial_options.collect_telemetry = telemetry;
    // The unit's row frames, kept until the seal is acked.
    std::vector<std::string> rows;
    rows.reserve(trial_end - trial_begin);
    bool unit_complete = true;
    for (std::uint32_t trial = trial_begin; trial < trial_end; ++trial) {
      if (session.stop_requested()) {
        stats.stopped = true;
        unit_complete = false;
        break;
      }
      const campaign::TrialExecutor::Outcome outcome =
          executor.run(trial, trial_options);
      // Lifecycle fault point: crash or stall BEFORE the row is sent, so the
      // injected failure exercises the at-least-once window (the trial ran
      // but its row never reached the coordinator).
      if (FaultInjector* injector = fault_injector()) {
        int stall_ms = 0;
        switch (injector->next_lifecycle(&stall_ms)) {
          case LifecycleFault::None:
            break;
          case LifecycleFault::Crash:
            log("injected crash before the row of " + scenario_name + "#" +
                std::to_string(trial));
            if (options.crash) {
              options.crash();
            }
            throw InjectedCrash();
          case LifecycleFault::Stall:
            log("injected stall (" + std::to_string(stall_ms) +
                " ms) before the row of " + scenario_name + "#" +
                std::to_string(trial));
            sleep_checking_stop(std::chrono::milliseconds(stall_ms),
                                options.stop);
            break;
        }
      }
      if (telemetry) session.send(telemetry_payload(outcome.telemetry));
      rows.push_back(row_payload(unit, outcome.row));
      session.send(rows.back());
    }
    if (!unit_complete) break;
    if (pending.has_value() && !finish_seal()) {
      stats.stopped = true;
      break;
    }
    pending = PendingSeal{
        "{\"type\":\"seal\",\"unit\":" + std::to_string(unit) +
            ",\"scenario\":\"" + scenario_name +
            "\",\"trial_begin\":" + std::to_string(trial_begin) +
            ",\"trial_end\":" + std::to_string(trial_end) + "}",
        std::move(rows)};
  }

  stats.worker_id = session.worker_id();
  return stats;
}

}  // namespace dualrad::serve
