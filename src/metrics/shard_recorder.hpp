// Per-shard trace buffering for the sharded engine.
//
// Nodes record pulses and iterations through the Recorder interface, but the
// real Recorder is single-threaded mutable state (global sigma extrema, the
// streaming accumulators). In a sharded run each node therefore records
// into its shard's ShardRecorder -- plain append-only lanes, touched only by
// that shard's worker thread: one for pulses, one for iteration records that
// only full recording fills -- and the window barrier's serial completion
// replays the buffers into the true Recorder via merge_shard_records().
//
// Why replaying each buffer as it stands, shard after shard, reproduces the
// serial engine byte for byte: the Recorder's state and StreamingSkew's
// state depend only on each node's own record sequence (per-node logs and
// rings, order-free extrema, counts and sketch bins, and an exact deviation
// sum), and a node's shard buffer keeps that sequence, since the node
// records only on its own shard's thread. The interleaving ACROSS nodes
// differs from the serial engine's, but only inside one window: a pulse
// moves by less than one window (at most the lookahead, a link delay, so at
// most d < Lambda), and the accumulator's 8-wave rings absorb that. The
// differential tests in tests/test_sharded.cpp and
// tests/test_streaming_metrics.cpp hold every builtin scenario to it.
#pragma once

#include <span>
#include <vector>

#include "metrics/recorder.hpp"

namespace gtrix {

class ShardRecorder final : public Recorder {
 public:
  /// `mode` is the sink's recording mode: streaming keeps no iteration
  /// records, so a streaming shard does not buffer them either.
  explicit ShardRecorder(RecordingMode mode) : keep_iterations_(mode == RecordingMode::kFull) {}

  struct PulseEntry {
    RecNodeId node = 0;
    Sigma sigma = 0;
    SimTime t = 0.0;
  };

  struct IterationEntry {
    RecNodeId node = 0;
    IterationRecord iteration;
  };

  void record_pulse(RecNodeId node, Sigma sigma, SimTime t) override {
    pulses_.push_back(PulseEntry{node, sigma, t});
  }

  void record_iteration(RecNodeId node, const IterationRecord& record) override {
    if (keep_iterations_) iterations_.push_back(IterationEntry{node, record});
  }

  std::vector<PulseEntry>& pulses() noexcept { return pulses_; }
  std::vector<IterationEntry>& iterations() noexcept { return iterations_; }

 private:
  bool keep_iterations_;
  std::vector<PulseEntry> pulses_;
  std::vector<IterationEntry> iterations_;  ///< full recording only
};

/// Replays every shard buffer into `sink` -- shard 0's pulse lane, then
/// shard 1's, and so on, then the iteration lanes the same way -- and
/// clears the buffers. Serial: the shard driver calls this from the window
/// barrier's completion step.
void merge_shard_records(Recorder& sink, std::span<ShardRecorder* const> shards);

}  // namespace gtrix
