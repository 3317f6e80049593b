// Cell and campaign execution. run_cell takes one cell from config to
// ExperimentResult -- plain, traced or checkpointed; run_campaign expands a
// Scenario's config matrix, fans the cells across parallel_for_index
// workers, and emits machine-readable results.
//
// Two output artifacts per campaign:
//  * JSONL -- one compact JSON object per cell, in cell order. Contains only
//    values derived from the simulation, so the bytes are identical no
//    matter how many worker threads ran the sweep (the CI determinism check
//    diffs --threads=1 against --threads=4).
//  * summary JSON -- aggregate skew percentiles, counter totals, bound
//    compliance and wall time; the file committed as BENCH_*.json for
//    trajectory tracking. Wall time is measured, hence non-deterministic,
//    which is why it lives here and never in the JSONL.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runner/experiment.hpp"
#include "scenario/spec.hpp"
#include "support/json.hpp"

namespace gtrix {

class TraceCollector;

/// Per-cell checkpointing for crash-safe campaigns (docs/checkpointing.md).
/// An empty `dir` disables the subsystem entirely; with a directory set,
/// run_cell snapshots at sim-time boundaries and records finished cells as
/// done files, both in the CRC-checked checkpoint container. Resumed runs
/// reproduce byte-identical JSONL output.
struct CheckpointOptions {
  std::string dir;     ///< checkpoint/done-file directory; empty = off
  /// Simulated time between snapshots (--checkpoint-every). <= 0 means no
  /// periodic snapshots: cells still write done files (and corrupt cells
  /// one snapshot at the corruption boundary), so resume skips completed
  /// cells but restarts incomplete ones from scratch.
  double every = 0.0;
  /// Reuse artifacts already in `dir`: completed cells reload their done
  /// files (never re-run), incomplete ones restore the newest snapshot and
  /// continue. Off = ignore and overwrite existing artifacts.
  bool resume = false;
};

struct CampaignOptions {
  unsigned threads = 0;  ///< sweep workers; 0 = hardware concurrency
  /// Engine shards per cell (the gtrix_campaign --shards flag); 0 = the
  /// scenario's own "engine": {"shards": N} default (1 when absent). The
  /// effective count is budgeted so sweep workers x shard threads never
  /// exceeds hardware concurrency -- shard counts are behaviour-neutral, so
  /// the clamp never changes results, only the thread layout.
  std::uint32_t shards = 0;
  /// When non-empty, overrides every cell's trace-retention mode (the
  /// gtrix_campaign --recording flag). Validated against the recording
  /// registry. Applies to corrupt cells too: under streaming they keep
  /// their pulse trace for realignment and the post-recovery measurement.
  /// The emitted JSONL configs always describe the mode that actually ran.
  ComponentSpec recording_override{};
  /// Engine telemetry per cell (--telemetry; docs/observability.md): cells
  /// harvest EngineStats, the JSONL gains the engine-invariant
  /// `engine_stats` block and the summary the merged engine-shaped one.
  /// Implied by a non-null `trace`.
  bool telemetry = false;
  /// Optional Chrome-trace collector (--trace-out; non-owning). Cell i's
  /// run is traced under pid `trace_pid_base + i`; the campaign itself
  /// under pid 1, one span per cell on the executing sweep worker's tid.
  TraceCollector* trace = nullptr;
  /// First pid used for per-cell trace processes (pid 1 is the campaign);
  /// callers tracing several campaigns into one file bump this.
  std::uint32_t trace_pid_base = 2;
  /// > 0: print a live progress heartbeat to stderr every this-many
  /// seconds (--progress) -- cells done, cumulative events/s, ETA.
  /// Diagnostics only; never written to the JSONL or summary.
  double progress_seconds = 0.0;
  /// Crash-safe per-cell checkpointing (--checkpoint-dir / --resume).
  CheckpointOptions checkpoint{};
};

struct CampaignCell {
  std::string label;
  ExperimentConfig config;
  CorruptPlan corrupt;
  ExperimentResult result;
};

struct CampaignResult {
  std::string scenario;
  std::vector<CampaignCell> cells;  ///< in deterministic cell order
  unsigned threads_used = 0;
  std::uint32_t shards_used = 1;  ///< engine shards per cell after budgeting
  double wall_seconds = 0.0;
};

/// Per-cell observers (campaign internals; defaulted so direct run_cell
/// callers -- tests, benches -- are untouched). Only honored when the
/// World's EngineOptions::telemetry is set.
struct CellObs {
  TraceCollector* trace = nullptr;  ///< non-owning
  std::uint32_t trace_pid = 0;      ///< trace process id for this cell
};

/// Stable per-cell artifact key: "cell-<zero-padded index>-<sanitized
/// label>" (characters outside [A-Za-z0-9._-] become '_', long labels are
/// truncated). Cell order is deterministic, so the key names the same cell
/// in the original run and in every resume.
std::string cell_key(std::size_t index, const std::string& label);

/// Runs one cell from config to result: builds the World (`engine` selects
/// shards and telemetry; results are bit-identical for every engine) and
/// drives it through the World-level run_cell below.
///
/// With `ckpt.dir` set the cell is crash-safe. Its artifacts live in
/// `ckpt.dir` under cell_key(index, label): <key>.ckpt (newest snapshot;
/// kept after completion for inspection) and <key>.done (completion marker
/// + full result, written atomically after the result exists). Both are
/// checkpoint containers whose header meta carries the cell fingerprint.
/// A campaign killed at ANY point and rerun with resume=true reproduces
/// the exact bytes of an uninterrupted run: completed cells reload their
/// done file (ExperimentResult::checkpoint stores raw bits, so the cell
/// never runs twice), incomplete ones restore the newest snapshot and
/// continue (tests/kill_resume_test.py SIGKILLs real campaigns to prove
/// it). Throws CkptError on corrupt or mismatched artifacts when resuming.
ExperimentResult run_cell(const ExperimentConfig& config, const CorruptPlan& corrupt = {},
                          EngineOptions engine = {}, CellObs obs = {},
                          const CheckpointOptions& ckpt = {}, std::size_t index = 0,
                          const std::string& label = "base");

/// The World-level half of run_cell: drives a freshly constructed `world`
/// through the cell and measures it. Honors an optional mid-run corruption
/// plan (the Theorem 1.6 workload: run to wave * lambda, scramble
/// `fraction` of all nodes, run out, realign labels, then measure -- in the
/// configured recording mode; streaming keeps the pulse trace). With
/// `ckpt.dir` set the run advances in sim-time chunks of `ckpt.every` and
/// snapshots the world to <ckpt.dir>/<key>.ckpt at each chunk boundary and
/// at the corruption boundary (resume=true first restores that snapshot);
/// without it the chunk loop reduces to run_until -> corrupt_fraction ->
/// run_to_completion. Each step is a phase span ("run", "corrupt",
/// "recover", "realign") when `obs.trace` is set. Callers that need the
/// World afterwards (bench_scale's streaming diagnostics) use this half.
ExperimentResult run_cell(World& world, const CorruptPlan& corrupt, CellObs obs = {},
                          const CheckpointOptions& ckpt = {}, const std::string& key = {});

/// Harvests a cell's final measurement from a COMPLETED world: for corrupt
/// cells realigns wave labels and measures the post-recovery sub-window,
/// otherwise the default window.
ExperimentResult measure_cell(World& world, const ExperimentConfig& config,
                              const CorruptPlan& corrupt);

/// The campaign JSONL `skew` object of one cell: the one serializer of a
/// SkewReport, which the identity checks (bench_perf's gates, the
/// checkpoint and sharding tests) also compare byte for byte.
Json skew_to_json(const SkewReport& skew);

/// Expands and runs the whole scenario matrix in parallel.
CampaignResult run_campaign(const Scenario& scenario, const CampaignOptions& options = {});

/// One JSON line per cell (newline-terminated). Deterministic.
std::string campaign_jsonl(const CampaignResult& result);

/// Aggregate summary (percentiles, counters, wall time).
Json campaign_summary(const CampaignResult& result);

}  // namespace gtrix
