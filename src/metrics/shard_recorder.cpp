#include "metrics/shard_recorder.hpp"

namespace gtrix {

void merge_shard_records(Recorder& sink, std::span<ShardRecorder* const> shards) {
  for (ShardRecorder* shard : shards) {
    for (const ShardRecorder::PulseEntry& e : shard->pulses()) {
      sink.record_pulse(e.node, e.sigma, e.t);
    }
    shard->pulses().clear();
  }
  for (ShardRecorder* shard : shards) {
    for (const ShardRecorder::IterationEntry& e : shard->iterations()) {
      sink.record_iteration(e.node, e.iteration);
    }
    shard->iterations().clear();
  }
}

}  // namespace gtrix
