// Chrome trace-event collection (docs/observability.md, "Timelines").
//
// TraceCollector accumulates complete ("ph":"X") spans plus process/thread
// name metadata and serializes the standard trace-event JSON object format
// ({"traceEvents": [...]}), loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing and validated by tools/trace_summary.py.
//
// Layout convention for campaign traces:
//  * pid 1 = the campaign itself; one tid per sweep worker thread, one span
//    per cell (name = cell label, args.events = logical events).
//  * pid 2+i = cell i; tid = shard index inside the cell. Sharded runs emit
//    a "window"/"window-final" span per conservative window per shard and a
//    "barrier" span for the time parked at the window barrier; serial runs
//    emit the run_cell phase spans ("run", "corrupt", "realign", ...) on
//    tid 0.
//
// Thread safety: add_complete / set_*_name / tid_for_current_thread take a
// mutex. Spans are recorded per window / per cell phase -- hundreds per
// second, not per event -- so contention is irrelevant; what matters is
// that shard workers and sweep workers can append concurrently.
//
// Timestamps are microseconds since the collector's construction, measured
// on the steady clock -- wall-clock data, so traces are never part of any
// determinism contract.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace gtrix {

class TraceCollector {
 public:
  TraceCollector() : t0_(std::chrono::steady_clock::now()) {}

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Microseconds elapsed since construction (the trace time base).
  double now_us() const { return us_at(std::chrono::steady_clock::now()); }

  /// Converts a caller-captured steady-clock point to the trace time base
  /// (instrumentation sites capture time points once and stamp spans later).
  double us_at(std::chrono::steady_clock::time_point tp) const {
    return std::chrono::duration<double, std::micro>(tp - t0_).count();
  }

  /// Records a complete span [ts_us, ts_us + dur_us). `arg_events >= 0`
  /// attaches an args.events payload (events executed in the span).
  void add_complete(std::uint32_t pid, std::uint32_t tid, std::string name,
                    double ts_us, double dur_us, std::int64_t arg_events = -1);

  void set_process_name(std::uint32_t pid, std::string name);
  void set_thread_name(std::uint32_t pid, std::uint32_t tid, std::string name);

  /// Stable small tid for the calling OS thread (first come, first
  /// numbered) -- sweep workers have no natural index, Chrome tids must be
  /// integers.
  std::uint32_t tid_for_current_thread();

  std::size_t event_count() const;

  /// {"traceEvents": [...], "displayTimeUnit": "ms"}.
  Json to_json() const;

 private:
  struct Span {
    std::uint32_t pid;
    std::uint32_t tid;
    std::string name;
    double ts_us;
    double dur_us;
    std::int64_t arg_events;  ///< < 0: no args
  };
  struct Name {
    bool is_thread;
    std::uint32_t pid;
    std::uint32_t tid;
    std::string name;
  };

  std::chrono::steady_clock::time_point t0_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<Name> names_;
  std::vector<std::pair<std::thread::id, std::uint32_t>> thread_tids_;
};

}  // namespace gtrix
