// Performance gates behind bench_perf: the telemetry-overhead and
// checkpoint-cost comparisons, each with a bit-identity check on the skew
// outputs of every cell (the bytes of the campaign JSONL skew object,
// skew_to_json). Absolute per-layer host time is measured by
// hostbench/ (docs/performance.md).
#pragma once

#include <cstdint>
#include <string>

#include "runner/campaign.hpp"
#include "scenario/spec.hpp"
#include "support/json.hpp"

namespace gtrix {

/// Telemetry overhead measurement (the CI "telemetry is ~free" gate; see
/// docs/observability.md). Runs every cell with telemetry off and on,
/// alternating pass order per repeat so neither mode systematically enjoys
/// a warmer allocator / cache state; wall time takes the fastest repeat per
/// cell and mode.
struct TelemetryOverheadReport {
  std::string scenario;
  std::size_t cells = 0;
  int repeats = 1;
  double off_wall_seconds = 0.0;  ///< best repeat, telemetry disabled
  double on_wall_seconds = 0.0;   ///< best repeat, telemetry enabled
  /// on/off - 1; <= 0 means enabling was within noise of free.
  double overhead = 0.0;
  bool skew_identical = false;    ///< telemetry must not change results
};

TelemetryOverheadReport run_telemetry_overhead(const Scenario& scenario, int repeats);

Json telemetry_overhead_json(const TelemetryOverheadReport& report);

/// Checkpoint overhead measurement (the CI "snapshots are cheap and exact"
/// gate; see docs/checkpointing.md). Runs every cell plain vs checkpointed
/// (periodic snapshots to `scratch_dir`), alternating order per repeat, then
/// one resume pass that restores each cell from its newest snapshot. All
/// three paths must produce bit-identical skew objects.
struct CheckpointOverheadReport {
  std::string scenario;
  std::size_t cells = 0;
  int repeats = 1;
  double every = 0.0;                  ///< simulated time between snapshots
  double plain_wall_seconds = 0.0;     ///< summed per-cell best, no checkpointing
  double ckpt_wall_seconds = 0.0;      ///< summed per-cell best, checkpointing on
  /// ckpt/plain - 1; <= 0 means snapshotting was within noise of free.
  double overhead = 0.0;
  std::uint64_t checkpoints_written = 0;  ///< snapshots per checkpointed pass
  std::uint64_t checkpoint_bytes = 0;     ///< bytes per checkpointed pass
  double checkpoint_write_seconds = 0.0;  ///< best pass's time inside snapshot writes
  double restore_wall_seconds = 0.0;      ///< resume pass total (restore + tail re-run)
  double checkpoint_restore_seconds = 0.0;  ///< time inside snapshot loads
  std::uint64_t checkpoints_restored = 0;
  bool skew_identical = false;  ///< plain == checkpointed == resumed, bit for bit
};

CheckpointOverheadReport run_checkpoint_overhead(const Scenario& scenario, int repeats,
                                                 const std::string& scratch_dir,
                                                 double every);

Json checkpoint_overhead_json(const CheckpointOverheadReport& report);

}  // namespace gtrix
