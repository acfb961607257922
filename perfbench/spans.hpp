#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/telemetry.hpp"

/// \file spans.hpp
/// In-memory span recorder of the benchmark's traced runs. dualrad_bench opens a
/// span around each call it makes into a layer of the library (graph
/// construction, process factory, trial, contract check, audit, export,
/// serve phases). Spans are kept in memory, each with its layer, start, end
/// and parent, and written once at the end as Chrome trace-event JSON, which
/// Perfetto and chrome://tracing load.

namespace perfbench {

class SpanRecorder {
 public:
  SpanRecorder() : origin_ns_(dualrad::obs::monotonic_ns()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Open a span; returns its id (ids start at 1, 0 means "no parent").
  std::uint64_t begin(const char* layer, std::string name,
                      std::uint64_t parent, std::string detail = {}) {
    return record(layer, std::move(name), parent,
                  dualrad::obs::monotonic_ns(), 0, std::move(detail));
  }

  /// Add a span whose ends were timed elsewhere (monotonic_ns values);
  /// end_ns 0 leaves it open.
  std::uint64_t record(const char* layer, std::string name,
                       std::uint64_t parent, std::uint64_t start_ns,
                       std::uint64_t end_ns, std::string detail = {}) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{layer, std::move(name), std::move(detail), parent,
                          start_ns, end_ns, thread_index()});
    return spans_.size();
  }

  void end(std::uint64_t id) {
    const std::uint64_t stop = dualrad::obs::monotonic_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    if (id == 0 || id > spans_.size()) return;
    spans_[id - 1].end_ns = stop;
  }

  /// Write every span as a Chrome "X" (complete) event; args carry the span
  /// id, its parent id and the detail string. Spans still open are closed at
  /// the time of writing.
  void write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    const std::uint64_t now = dualrad::obs::monotonic_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::uint64_t end = s.end_ns != 0 ? s.end_ns : now;
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%llu,\"detail\":\"%s\"}}\n",
                   i == 0 ? "" : ",", s.name.c_str(), s.layer, s.tid,
                   static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                   static_cast<double>(end - s.start_ns) / 1e3, i + 1,
                   static_cast<unsigned long long>(s.parent),
                   s.detail.c_str());
    }
    std::fputs("]}\n", f);
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
  }

 private:
  struct Span {
    const char* layer;
    std::string name;
    std::string detail;
    std::uint64_t parent;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    unsigned tid;
  };

  /// Small dense per-thread index for the trace's tid column.
  static unsigned thread_index() {
    static std::atomic<unsigned> next{1};
    thread_local const unsigned index = next.fetch_add(1);
    return index;
  }

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t origin_ns_;
};

/// RAII span; a null recorder makes it a no-op (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* layer, std::string name,
             std::uint64_t parent, std::string detail = {})
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->begin(layer, std::move(name),
                                                  parent, std::move(detail))
                                : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  std::uint64_t id_;
};

}  // namespace perfbench
