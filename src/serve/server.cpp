#include "serve/server.hpp"

#include <sys/eventfd.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <list>
#include <stdexcept>
#include <thread>
#include <utility>

#include "campaign/export.hpp"
#include "campaign/jsonl.hpp"
#include "serve/wire.hpp"

namespace dualrad::serve {

namespace jsonl = campaign::jsonl;

namespace {

/// Escape a string for embedding in a reply. Scenario and worker names are
/// charset-restricted and never need this; exception messages might.
[[nodiscard]] std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

[[nodiscard]] std::string error_reply(std::string_view message) {
  return "{\"type\":\"error\",\"message\":\"" + json_escape(message) + "\"}";
}

/// How long one `lease` long-poll may block: far below any sane worker
/// reply timeout, long enough that an idle worker costs ~1 RPC per second.
constexpr std::chrono::milliseconds kLeaseLongPoll{1000};

}  // namespace

Server::Server(Coordinator& coordinator, Options options)
    : coordinator_(coordinator),
      options_(std::move(options)),
      stop_fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  if (stop_fd_ < 0) throw std::runtime_error("dualrad: eventfd failed");
}

Server::~Server() { ::close(stop_fd_); }

void Server::request_stop() {
  stop_.store(true, std::memory_order_relaxed);
  // Level-triggered: the eventfd stays readable, so every poll on it —
  // present or future — returns at once.
  const std::uint64_t one = 1;
  (void)!::write(stop_fd_, &one, sizeof one);
  coordinator_.wake_waiters();
}

std::string Server::handle_message(const std::string& payload,
                                   Connection& connection) {
  jsonl::require_flat_object(payload);
  const std::string_view type = jsonl::field(payload, "type");

  if (type == "hello") {
    const std::string requested(
        jsonl::field_opt(payload, "worker").value_or(""));
    const std::string id = coordinator_.register_worker(requested);
    return "{\"type\":\"welcome\",\"worker\":\"" + id + "\"}";
  }

  if (type == "lease") {
    const std::string worker(jsonl::field(payload, "worker"));
    // A worker that pipelines its previous unit's seal behind this lease
    // asks for no long-poll: blocking here would hold that seal back.
    const bool long_poll = jsonl::field_opt(payload, "long_poll") != "false";
    if (const std::optional<JobSpec> job = coordinator_.lease(
            worker, long_poll ? kLeaseLongPoll : std::chrono::milliseconds(0),
            &stop_)) {
      std::string reply = "{\"type\":\"unit\"";
      reply += ",\"unit\":" + std::to_string(job->unit);
      reply += ",\"scenario\":\"" + job->scenario + "\"";
      reply += ",\"trial_begin\":" + std::to_string(job->trial_begin);
      reply += ",\"trial_end\":" + std::to_string(job->trial_end);
      reply += ",\"master_seed\":" + std::to_string(job->master_seed);
      reply += ",\"collect_telemetry\":";
      reply += job->collect_telemetry ? "true" : "false";
      reply += "}";
      return reply;
    }
    if (!coordinator_.campaign_loaded()) return "{\"type\":\"idle\"}";
    if (coordinator_.done()) return "{\"type\":\"done\"}";
    // The long-poll ran out with everything leased out; the worker asks
    // again at once.
    return "{\"type\":\"wait\"}";
  }

  if (type == "row") {
    // The row payload carries the trial-row fields at top level, so the
    // canonical key-based row parser reads it directly ("type"/"unit" are
    // ignored like any unknown key). One-way: a rejection is held for the
    // next seal on this connection.
    try {
      const std::vector<campaign::TrialRow> rows =
          campaign::trials_from_jsonl(payload + "\n");
      DUALRAD_REQUIRE(rows.size() == 1, "row frame carries exactly one row");
      (void)coordinator_.add_row(rows.front());
    } catch (const std::exception& e) {
      if (connection.row_error.empty()) connection.row_error = e.what();
    }
    return {};
  }

  if (type == "seal") {
    if (!connection.row_error.empty()) {
      std::string error;
      error.swap(connection.row_error);
      return error_reply(error);
    }
    const auto trial = [&](const char* key) {
      return jsonl::to_int<std::uint32_t>(jsonl::field(payload, key));
    };
    const Coordinator::Seal outcome =
        coordinator_.seal(jsonl::field(payload, "scenario"),
                          trial("trial_begin"), trial("trial_end"));
    return outcome == Coordinator::Seal::Ack ? "{\"type\":\"ack\"}"
                                             : "{\"type\":\"resend\"}";
  }

  if (type == "telemetry") {
    const std::vector<campaign::TelemetryRow> rows =
        campaign::telemetry_from_jsonl(payload + "\n");
    if (rows.size() == 1) coordinator_.add_telemetry(rows.front());
    return {};  // fire-and-forget
  }

  if (type == "status") {
    const Coordinator::Status s = coordinator_.status();
    std::string reply = "{\"type\":\"state\"";
    reply += ",\"loaded\":";
    reply += s.loaded ? "true" : "false";
    reply += ",\"finished\":";
    reply += s.finished ? "true" : "false";
    reply += ",\"scenarios\":" + std::to_string(s.scenarios);
    reply += ",\"total_trials\":" + std::to_string(s.total_trials);
    reply += ",\"committed\":" + std::to_string(s.committed);
    reply += ",\"resumed\":" + std::to_string(s.resumed);
    reply += ",\"units_pending\":" + std::to_string(s.units_pending);
    reply += ",\"units_leased\":" + std::to_string(s.units_leased);
    reply += ",\"units_done\":" + std::to_string(s.units_done);
    reply += ",\"units_quarantined\":" + std::to_string(s.units_quarantined);
    reply += ",\"trials_quarantined\":" + std::to_string(s.trials_quarantined);
    reply += ",\"workers\":" + std::to_string(s.workers);
    reply += ",\"lease_expiries\":" + std::to_string(s.lease_expiries);
    reply += ",\"journal_errors\":" + std::to_string(s.journal_errors);
    reply += ",\"journal_syncs\":" + std::to_string(s.journal_syncs);
    char sync_ms[32];
    std::snprintf(sync_ms, sizeof sync_ms, "%.3f", s.journal_sync_ms);
    reply += ",\"journal_sync_ms\":";
    reply += sync_ms;
    reply += ",\"seals\":" + std::to_string(s.seals);
    reply += ",\"row_resends\":" + std::to_string(s.row_resends);
    reply += ",\"lease_ms_effective\":" + std::to_string(s.lease_ms_effective);
    reply += "}";
    return reply;
  }

  if (type == "submit") {
    if (options_.registry == nullptr) {
      return error_reply("this coordinator does not accept submissions");
    }
    const std::string filter(jsonl::field_opt(payload, "filter").value_or(""));
    const std::vector<campaign::Scenario> scenarios =
        options_.registry->match(filter);
    if (scenarios.empty()) {
      return error_reply("no scenarios match filter '" + filter + "'");
    }
    std::uint64_t seed = coordinator_.config().master_seed;
    if (const auto v = jsonl::field_opt(payload, "seed")) {
      seed = jsonl::to_u64(*v);
    }
    std::size_t trials = coordinator_.config().trials_override;
    if (const auto v = jsonl::field_opt(payload, "trials")) {
      trials = jsonl::to_int<std::size_t>(*v);
    }
    coordinator_.configure_campaign(seed, trials);
    coordinator_.load_campaign(scenarios);
    const Coordinator::Status s = coordinator_.status();
    return "{\"type\":\"submitted\",\"scenarios\":" +
           std::to_string(s.scenarios) +
           ",\"total_trials\":" + std::to_string(s.total_trials) + "}";
  }

  connection.close = true;
  return error_reply("unknown message type: " + std::string(type));
}

void Server::handle_connection(int fd) {
  FrameReader reader;
  Connection connection;
  while (!stopping()) {
    bool timed_out = false;
    const std::optional<std::string> payload =
        recv_frame(fd, reader, /*timeout_ms=*/0, &timed_out, stop_fd_);
    if (!payload.has_value()) break;  // EOF, error, corrupt stream, or stop
    std::string reply;
    try {
      reply = handle_message(*payload, connection);
    } catch (const std::exception& e) {
      // Malformed messages and bad seals land here: report and keep serving
      // (the worker decides whether the error is fatal).
      reply = error_reply(e.what());
    }
    if (!reply.empty() && !send_frame(fd, reply)) break;
    if (connection.close) break;
  }
  ::close(fd);
}

void Server::run_accept_loop(int listen_fd) {
  struct Handler {
    std::thread thread;
    std::atomic<bool> finished{false};
  };
  // A list: handler threads hold a reference to their own node.
  std::list<Handler> handlers;
  const auto reap = [&](bool all) {
    for (auto it = handlers.begin(); it != handlers.end();) {
      if (all || it->finished.load(std::memory_order_acquire)) {
        it->thread.join();
        it = handlers.erase(it);
      } else {
        ++it;
      }
    }
    handler_threads_.store(handlers.size(), std::memory_order_relaxed);
  };
  while (!stopping()) {
    bool timed_out = false;
    const int fd =
        accept_connection(listen_fd, /*timeout_ms=*/0, &timed_out, stop_fd_);
    if (fd < 0) break;  // listener error or stop
    // A long-lived coordinator serves one connection per status RPC; join
    // the finished ones as we go instead of holding them until shutdown.
    reap(false);
    Handler& handler = handlers.emplace_back();
    handler.thread = std::thread([this, fd, &handler] {
      handle_connection(fd);
      handler.finished.store(true, std::memory_order_release);
    });
    handler_threads_.store(handlers.size(), std::memory_order_relaxed);
  }
  reap(true);
}

}  // namespace dualrad::serve
