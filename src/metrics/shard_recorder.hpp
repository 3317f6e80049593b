// Per-shard trace buffering for the sharded engine.
//
// Nodes record pulses and iterations through the Recorder interface, but the
// real Recorder is single-threaded mutable state (global sigma extrema, the
// streaming accumulators' floating-point sums). In a sharded run each node
// therefore records into its shard's ShardRecorder -- plain append-only
// lanes, touched only by that shard's worker thread: one for pulses, one
// for iteration records that only full recording fills -- and the window
// barrier's serial completion merges all buffers into the true Recorder in
// (time, node) order via merge_shard_records().
//
// Why that order reproduces the serial engine byte-for-byte: every node
// lives in exactly one shard, so a stable sort by (time, node) preserves
// each node's own generation order, and two different nodes never record at
// the same timestamp in practice (pulse times carry per-node layer-0 jitter
// and clock-rate noise). The differential tests in tests/test_sharded.cpp
// are the referee for that claim on every builtin scenario.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "metrics/recorder.hpp"
#include "sim/simulator.hpp"

namespace gtrix {

class ShardRecorder final : public Recorder {
 public:
  /// `sim` is the owning shard's simulator; entries are stamped with its
  /// now() at record time, which is the event time being executed. `mode`
  /// is the sink's recording mode: streaming keeps no iteration records,
  /// so a streaming shard does not buffer them either.
  ShardRecorder(const Simulator* sim, RecordingMode mode)
      : sim_(sim), keep_iterations_(mode == RecordingMode::kFull) {}

  struct PulseEntry {
    SimTime when = 0.0;  ///< shard-local now() at record time: the merge key
    RecNodeId node = 0;
    Sigma sigma = 0;
    SimTime t = 0.0;
  };

  struct IterationEntry {
    SimTime when = 0.0;
    RecNodeId node = 0;
    IterationRecord iteration;
  };

  void record_pulse(RecNodeId node, Sigma sigma, SimTime t) override {
    pulses_.push_back(PulseEntry{sim_->now(), node, sigma, t});
  }

  void record_iteration(RecNodeId node, const IterationRecord& record) override {
    if (keep_iterations_) iterations_.push_back(IterationEntry{sim_->now(), node, record});
  }

  std::vector<PulseEntry>& pulses() noexcept { return pulses_; }
  std::vector<IterationEntry>& iterations() noexcept { return iterations_; }

  /// Puts both lanes into (when, node) order, stably (each node's own
  /// generation order survives). Called by the OWNING WORKER at the end of
  /// its window so the sort cost runs in parallel across shards; the serial
  /// barrier completion then only has to merge already-sorted runs. Events
  /// execute in time order, so each lane is globally sorted by `when`
  /// already; only maximal equal-`when` segments (batched deliveries) can
  /// be out of node order, and those are short, so this is one linear scan
  /// plus tiny per-segment sorts.
  void sort_window() {
    sort_by_node(pulses_);
    sort_by_node(iterations_);
  }

 private:
  template <class Entry>
  static void sort_by_node(std::vector<Entry>& lane) {
    auto node_less = [](const Entry& a, const Entry& b) { return a.node < b.node; };
    auto it = lane.begin();
    while (it != lane.end()) {
      auto end = it + 1;
      while (end != lane.end() && end->when == it->when) ++end;
      if (!std::is_sorted(it, end, node_less)) std::stable_sort(it, end, node_less);
      it = end;
    }
  }

  const Simulator* sim_;
  bool keep_iterations_;
  std::vector<PulseEntry> pulses_;
  std::vector<IterationEntry> iterations_;  ///< full recording only
};

/// Replays every shard buffer into `sink` in global (time, node) order and
/// clears the buffers. Serial: the shard driver calls this from the window
/// barrier's completion step. Requires each buffer to already be in
/// (when, node) order (sort_window()); the merge itself is a copy-free
/// k-way pick so the serial section stays as thin as possible. Pulses and
/// iteration records are merged lane by lane: the Recorder keeps them in
/// separate logs, so only the order within each lane reaches its state.
void merge_shard_records(Recorder& sink, std::span<ShardRecorder* const> shards);

}  // namespace gtrix
