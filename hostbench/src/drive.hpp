// Drives scenario cells through the library's public campaign call sequence
// -- Scenario parse, World construction, run_until / corrupt_fraction /
// run_to_completion, measure_cell, campaign_jsonl + campaign_summary -- so
// that set-up, run, measurement and output can be timed separately without
// touching the library. Nothing here changes what a cell computes: the JSONL
// a drive emits is byte-identical to run_campaign's (tests/test_drive.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "runner/campaign.hpp"
#include "scenario/spec.hpp"

namespace hostbench {

/// CPU time of the whole process: every thread, user plus system. Unlike
/// wall time it leaves out the time the process waits for a CPU, which on a
/// shared host belongs to the neighbours rather than to the program, and on
/// a guest with steal accounting the time the hypervisor runs others. Every
/// step, span and end-to-end time is measured on it.
struct CpuClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<CpuClock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept;
};

using Clock = CpuClock;
/// Only for the run's time budget and the sweep's fan-out capacity.
using WallClock = std::chrono::steady_clock;

template <typename TimePoint>
double seconds_between(TimePoint a, TimePoint b) {
  return std::chrono::duration<double>(b - a).count();
}

/// In-memory span log for the traced run. Spans are recorded only at the
/// benchmark's own call boundaries into the library; they are written out
/// once, when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  ///< seconds since the log's origin
    double end_s = 0.0;
    int parent = -1;        ///< index into spans(); -1 for a root
    std::int64_t cell = -1; ///< shared by every span of one cell; -1 outside cells
  };

  SpanLog() : origin_(Clock::now()) {}

  int open(std::string name, int parent, std::int64_t cell);
  void close(int id);

  /// Self time per span name over spans [first, spans().size()): duration
  /// minus the union of its children's intervals.
  std::map<std::string, double> self_seconds(std::size_t first = 0) const;

  std::size_t size() const;
  gtrix::Json to_json() const;

 private:
  mutable std::mutex mu_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span; a null log makes it a no-op.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, int parent, std::int64_t cell)
      : log_(log), id_(log != nullptr ? log->open(name, parent, cell) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Host CPU time of each step of one cell, plus the sizes the traced run reports.
struct CellProbe {
  double construct_s = 0.0;
  double run_s = 0.0;       ///< inside run_until / run_to_completion
  double corrupt_s = 0.0;   ///< inside corrupt_fraction
  double save_s = 0.0;      ///< checkpoint_save
  double restore_s = 0.0;   ///< destroy + fresh World + checkpoint_restore
  double measure_s = 0.0;   ///< measure_cell
  double teardown_s = 0.0;  ///< World destructor
  double construct_rss_mb = 0.0;  ///< resident-set growth across the constructor
  std::uint64_t nodes = 0;
  std::uint64_t slot_capacity = 0;  ///< serial (shard 0) event-queue slot table
  std::uint64_t stream_bytes = 0;   ///< StreamingSkew::memory_bytes; 0 under full recording
  std::uint64_t ckpt_bytes = 0;
  std::string error;  ///< non-empty when the cell threw
};

struct DriveOptions {
  gtrix::EngineOptions engine;
  unsigned threads = 1;         ///< sweep workers for the cells of one scenario
  bool ckpt_roundtrip = false;  ///< snapshot + rebuild + restore at the corruption boundary
  SpanLog* spans = nullptr;     ///< null = untraced
  int parent_span = -1;
  std::int64_t first_cell_id = 0;
};

struct ScenarioRun {
  gtrix::CampaignResult campaign;
  std::vector<CellProbe> probes;  ///< one per cell, in cell order
  std::string jsonl;
  std::string summary;
  double load_s = 0.0;   ///< Json::parse + Scenario::from_json + cells()
  double sweep_s = 0.0;      ///< fan-out of all cells, wall
  double sweep_cpu_s = 0.0;  ///< fan-out of all cells, process CPU
};

/// Runs one cell through the public call sequence run_cell uses. Never
/// throws: a failing cell reports its message in CellProbe::error.
gtrix::ExperimentResult drive_cell(const gtrix::ScenarioCell& cell, const DriveOptions& options,
                                   std::int64_t cell_id, CellProbe& probe);

/// Parses a scenario document, drives every cell and emits the JSONL and
/// summary text. Throws only when the document itself does not parse.
ScenarioRun drive_scenario(const std::string& scenario_text, const DriveOptions& options);

/// Logical events of a cell: engine-invariant (see campaign.cpp).
std::uint64_t logical_events(const gtrix::ExperimentCounters& c);

}  // namespace hostbench
