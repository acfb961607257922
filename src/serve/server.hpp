#pragma once

#include <atomic>
#include <cstddef>
#include <string>

#include "campaign/registry.hpp"
#include "serve/coordinator.hpp"

/// \file server.hpp
/// The coordinator's socket front end: one thread per connection,
/// CRC-framed JSONL messages (wire.hpp).
///
/// Requests                         Replies
///   hello {worker}                   welcome {worker}
///   lease {worker, [long_poll]}      unit {...JobSpec} | wait | idle | done
///   row {unit, ...TrialRow}          (none — one-way, streamed per trial)
///   seal {unit, scenario,            ack | resend | error
///         trial_begin, trial_end}
///   telemetry {...TelemetryRow}      (none — one-way, out-of-band)
///   status                           state {...Coordinator::Status}
///   submit {filter, seed, trials}    submitted {total} | error
///
/// A worker streams each finished trial as a `row` and ends the unit with
/// one `seal`. The coordinator journals rows as they arrive and answers the
/// seal `ack` only after an fsync covering all of the unit's rows, or
/// `resend` if some row never arrived (lost with a dropped connection) —
/// the worker then resends the unit's rows and seals again. A row the
/// coordinator rejects (a byte-identity violation) is reported as `error` on
/// the next seal over the same connection; workers treat it as fatal.
///
/// `lease` is a long-poll: with nothing leasable the handler blocks until a
/// unit frees up, the campaign loads or settles, or about a second passes
/// (then `wait`/`idle`, and the worker asks again at once). Workers pipeline:
/// at the end of a unit they send `lease` with `long_poll:false` followed by
/// the unit's `seal`, start the next unit, and read the seal's reply when
/// that unit ends — so the seal's fsync overlaps the next unit's trials.
///
/// Connection teardown at any point is safe: dispatch is at-least-once
/// (lease expiry requeues), rows are exactly-once by value (coordinator
/// dedup), and a seal only succeeds once every row is in, so the server
/// keeps no connection state beyond a pending row error.

namespace dualrad::serve {

class Server {
 public:
  struct Options {
    /// Scenario catalogue used by `submit` to resolve filters; nullptr
    /// disables submit.
    const campaign::ScenarioRegistry* registry = nullptr;
  };

  Server(Coordinator& coordinator, Options options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serve one established connection until EOF, a framing error, or
  /// request_stop(). Blocking; called from a dedicated thread (or directly
  /// over a socketpair in tests). Closes `fd` before returning.
  void handle_connection(int fd);

  /// Accept connections on `listen_fd` until request_stop(), spawning one
  /// handler thread each and joining handlers as they finish. Joins all
  /// handlers before returning. Does not close `listen_fd`.
  void run_accept_loop(int listen_fd);

  /// Wake the accept loop, every connection handler and every long-polling
  /// lease at once, and make them wind down.
  void request_stop();

  [[nodiscard]] bool stopping() const {
    return stop_.load(std::memory_order_relaxed);
  }

  /// Handler threads the accept loop currently holds (running, or finished
  /// and not yet joined).
  [[nodiscard]] std::size_t handler_threads() const {
    return handler_threads_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-connection state: the first row rejected since the last seal.
  struct Connection {
    std::string row_error;
    bool close = false;
  };

  [[nodiscard]] std::string handle_message(const std::string& payload,
                                           Connection& connection);

  Coordinator& coordinator_;
  Options options_;
  std::atomic<bool> stop_{false};
  /// eventfd made readable by request_stop(); every blocking poll in the
  /// server watches it.
  int stop_fd_ = -1;
  std::atomic<std::size_t> handler_threads_{0};
};

}  // namespace dualrad::serve
