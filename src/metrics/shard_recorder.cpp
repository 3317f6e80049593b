#include "metrics/shard_recorder.hpp"

#include <cstddef>

namespace gtrix {

namespace {

/// Copy-free k-way merge of one lane over buffers the workers already
/// sorted in parallel (ShardRecorder::sort_window). Ties on (when, node)
/// cannot span buffers -- a node lives in exactly one shard -- so picking
/// the smallest head, lowest shard first, is a stable total order.
template <class Entry, class Replay>
void merge_lane(std::span<ShardRecorder* const> shards,
                std::vector<Entry>& (ShardRecorder::*lane)() noexcept, Replay replay) {
  static thread_local std::vector<std::size_t> heads;
  heads.assign(shards.size(), 0);
  while (true) {
    const Entry* best = nullptr;
    std::size_t best_shard = 0;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      const std::vector<Entry>& buffer = (shards[s]->*lane)();
      if (heads[s] >= buffer.size()) continue;
      const Entry& head = buffer[heads[s]];
      if (best == nullptr || head.when < best->when ||
          (head.when == best->when && head.node < best->node)) {
        best = &head;
        best_shard = s;
      }
    }
    if (best == nullptr) break;
    ++heads[best_shard];
    replay(*best);
  }
  for (ShardRecorder* shard : shards) (shard->*lane)().clear();
}

}  // namespace

void merge_shard_records(Recorder& sink, std::span<ShardRecorder* const> shards) {
  merge_lane(shards, &ShardRecorder::pulses, [&](const ShardRecorder::PulseEntry& e) {
    sink.record_pulse(e.node, e.sigma, e.t);
  });
  merge_lane(shards, &ShardRecorder::iterations, [&](const ShardRecorder::IterationEntry& e) {
    sink.record_iteration(e.node, e.iteration);
  });
}

}  // namespace gtrix
