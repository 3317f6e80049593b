// Checkpoint codecs for the engine-layer state holders: RNG streams,
// statistics accumulators, the event queue / simulator, the network
// (mailboxes included) and the metrics recorder / streaming skew
// accumulators, plus the finished cell result a done file holds. Defined
// here -- not in each class's own TU -- so the whole binary serialization
// of the engine lives in src/ckpt and the state classes only carry
// declarations. Each codec lists its fields once, in wire order, for both
// directions (CkptIo).
#include <cmath>
#include <string>
#include <vector>

#include "ckpt/codec.hpp"
#include "ckpt/detail.hpp"
#include "metrics/recorder.hpp"
#include "metrics/streaming.hpp"
#include "net/network.hpp"
#include "obs/telemetry.hpp"
#include "runner/experiment.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace gtrix {

// --- Rng ---------------------------------------------------------------------

void Rng::checkpoint(CkptIo& io) {
  GTRIX_CKPT_SIZEOF(Rng, 32);
  for (std::uint64_t& word : state_) io.u64(word);
}

// --- ExactSum ----------------------------------------------------------------

void ExactSum::checkpoint(CkptIo& io) {
  GTRIX_CKPT_SIZEOF(ExactSum, 272);
  for (std::uint64_t& word : words_) io.u64(word);
}

// --- LogQuantileSketch -------------------------------------------------------

void LogQuantileSketch::checkpoint(CkptIo& io) {
  GTRIX_CKPT_SIZEOF(LogQuantileSketch, 72);
  io.each(counts_, "quantile sketch bin", &CkptIo::u64);
  io.u64(zero_);
  io.u64(overflow_high_);
  io.u64(total_);
}

// --- EventQueue --------------------------------------------------------------
//
// The snapshot is the SLOT TABLE, exactly: indices, generation counters,
// live payloads with their (time, seq) keys, and the freelist chain order.
// Reproducing all of that makes a restore transparent to everything holding
// a TimerHandle (arena lanes) and to the (time, seq) total order -- the
// next event scheduled after a restore gets the same slot, generation and
// sequence number it would have gotten in the uninterrupted run. Only the
// calendar's bucket chains are rebuilt from the slot table rather than
// copied: their geometry is engine-shaped state with no influence on the
// event order. The same goes for the insert-occupancy and pop-visit
// counters and the crowding-refit window, which are not saved.

void EventQueue::checkpoint(CkptIo& io, const CkptTargetMap& targets) {
  GTRIX_CKPT_SIZEOF(EventQueue, 208);
  GTRIX_CKPT_FIELDS(Slot, 8);
  GTRIX_CKPT_FIELDS(EventPayload, 5);
  io.u64(next_seq_);
  io.u64(scheduled_);
  io.u64(executed_);
  io.u64(cancelled_);
  io.u64(rebuilds_);

  std::size_t lives = 0;
  io.vec(slots_, 4 + 1, "event slot", [&](CkptIo& io, Slot& slot) {
    io.u32(slot.gen);
    io.flag(slot.live);
    if (!slot.live) return;
    io.f64(slot.time);
    // The calendar refill sorts and buckets these times.
    if (!io.saving() && !std::isfinite(slot.time)) {
      throw CkptError("checkpoint event time is not finite (corrupt file)");
    }
    io.u32(slot.kind);
    io.u32(slot.payload.a);
    io.u32(slot.payload.b);
    io.u32(slot.payload.c);
    io.i64(slot.payload.i);
    io.f64(slot.payload.f);
    std::uint32_t target = io.saving() ? targets.id_of(slot.target) : 0;
    io.u32(target);
    io.u64(slot.seq);
    if (!io.saving()) slot.target = targets.target_of(target);
    ++lives;
  });

  // The freelist in chain order.
  std::vector<std::uint32_t> chain;
  if (io.saving()) {
    GTRIX_CHECK_MSG(lives == live_, "event queue live count out of sync");
    chain.reserve(slots_.size() - live_);
    for (std::uint32_t i = free_head_; i != kInvalidEventSlot; i = slots_[i].next) {
      chain.push_back(i);
    }
  }
  io.vec(chain, 4, "event freelist entry", &CkptIo::u32);
  if (io.saving()) return;

  live_ = lives;

  if (chain.size() + live_ != slots_.size()) {
    throw CkptError("checkpoint event queue freelist inconsistent (corrupt file)");
  }
  free_head_ = kInvalidEventSlot;
  std::uint32_t prev = kInvalidEventSlot;
  // The count check above still holds when one index repeats and another
  // is missing; linking the repeat would close a cycle, and two later
  // events would share a slot.
  std::vector<bool> chained(slots_.size(), false);
  for (const std::uint32_t idx : chain) {
    if (idx >= slots_.size() || slots_[idx].live) {
      throw CkptError("checkpoint event queue freelist corrupt");
    }
    if (chained[idx]) {
      throw CkptError("checkpoint event queue freelist names slot " + std::to_string(idx) +
                      " twice (corrupt file)");
    }
    chained[idx] = true;
    if (prev == kInvalidEventSlot) {
      free_head_ = idx;
    } else {
      slots_[prev].next = idx;
    }
    prev = idx;
  }

  // Refill the calendar from the restored slot table, fitted to the
  // population as any rebuild is. Bucket geometry is engine-shaped state,
  // so the refill is not counted as a rebuild, and the insert occupancy
  // and pop visits count from here.
  insert_occupancy_ = 0;
  pop_visits_ = 0;
  calendar_fit(kMinBuckets);
}

// --- Simulator ---------------------------------------------------------------

void Simulator::checkpoint(CkptIo& io, const CkptTargetMap& targets) {
  GTRIX_CKPT_SIZEOF(Simulator, 256);
  io.f64(now_);
  io.u64(timer_cancels_);
  queue_.checkpoint(io, targets);
}

// --- Network -----------------------------------------------------------------

void Network::checkpoint(CkptIo& io) {
  GTRIX_CKPT_SIZEOF(Network, 240);
  GTRIX_CKPT_FIELDS(ShardCell, 9);
  GTRIX_CKPT_FIELDS(ShardEnvelope, 5);
  // A kFlushArrivals event never outlives its instant, so no arrival can be
  // deferred at a snapshot barrier, and every drain refills the drain
  // scratch from scratch: of a cell, only the counters persist (the queue
  // pointer is construction state).
  for (const ShardCell& cell : shards_) {
    GTRIX_CHECK_MSG(!cell.defer_active && cell.deferred.empty(),
                    "checkpoint taken mid-instant: deferred arrivals pending");
  }
  io.u64(envelopes_published_);
  io.same_u32(shard_count(), "network shard");
  io.each(shards_, "shard counter", [](CkptIo& io, ShardCell& c) {
    io.u64(c.sent);
    io.u64(c.delivered);
    io.u64(c.delivery_events);
    io.u64(c.envelopes_drained);
  });
  const auto envelopes = [](CkptIo& io, std::vector<ShardEnvelope>& cell) {
    io.vec(cell, 8 + 3 * 4 + 8, "mailbox envelope", [](CkptIo& io, ShardEnvelope& e) {
      io.f64(e.arrival);
      io.u32(e.from);
      io.u32(e.edge);
      io.u32(e.to);
      io.i64(e.stamp);
    });
  };
  io.each(mail_, "mail matrix cell", envelopes);
  io.each(pending_, "pending matrix cell", envelopes);
}

// --- Recorder ----------------------------------------------------------------

void Recorder::checkpoint(CkptIo& io) {
  GTRIX_CKPT_SIZEOF(Recorder, 88);
  GTRIX_CKPT_FIELDS(NodeLog, 3);
  Lane all = folded();  // restored into lane 0: the accessors fold the lanes
  io.i64(all.min_sigma);
  io.i64(all.max_sigma);
  io.u64(all.pulses);  // mode and anchor are config-derived, not state
  if (!io.saving()) {
    lanes_.assign(lanes_.size(), Lane{});
    lanes_.front() = all;
  }
  io.same_count(metas_.size(), "recorder node");
  // Every registered node gets a log record. Without kept logs (un-anchored
  // streaming) each is an empty one, exactly as if the logs existed: saving
  // writes `scratch` untouched, restoring decodes into it and drops it.
  NodeLog scratch;
  for (RecNodeId node = 0; node < metas_.size(); ++node) {
    NodeLog& log = node < logs_.size() ? logs_[node] : scratch;
    io.i64(log.first_sigma);
    io.vec(log.times, 8, "pulse time", &CkptIo::f64);  // raw bits: NaN = missing survives
    io.vec(log.iterations, ckpt::kIterationBytes, "iteration record", ckpt::iteration);
  }
}

// --- StreamingSkew -----------------------------------------------------------

void StreamingSkew::checkpoint(CkptIo& io) {
  GTRIX_CKPT_SIZEOF(StreamingSkew, 320);
  GTRIX_CKPT_FIELDS(WaveExtrema, 4);
  GTRIX_CKPT_FIELDS(Shard, 11);
  const auto extrema = [](CkptIo& io, WaveExtrema& e) {  // `unfolded` is false at a barrier
    io.i64(e.sigma);
    io.f64(e.min);
    io.f64(e.max);
  };
  // Lane and ring sizes follow from the grid, shard plan and constant ring.
  io.each(held_sigma_, "held_sigma", &CkptIo::i64);
  io.each(held_time_, "held_time", &CkptIo::f64);
  io.each(recorded_, "recorded", &CkptIo::i64);
  io.each(held_steady_, "held_steady", [](CkptIo& io, std::uint8_t& steady) {
    bool flag = steady != 0;
    io.flag(flag);
    steady = flag ? 1 : 0;
  });
  io.each(ring_sigma_, "ring_sigma", &CkptIo::i64);
  io.each(ring_time_, "ring_time", &CkptIo::f64);
  io.each(shards_, "shard tally", [&](CkptIo& io, Shard& shard) {  // at a barrier: no cut queued
    io.each(shard.intra_by_layer, "intra_by_layer", &CkptIo::f64);
    io.each(shard.inter_by_layer, "inter_by_layer", &CkptIo::f64);
    io.each(shard.spread_by_layer, "spread_by_layer", &CkptIo::f64);
    io.each(shard.layer_ring, "layer_ring", extrema);
    io.u64(shard.pairs_checked);
    io.u64(shard.window_overflows);
    io.u64(shard.out_of_order);  // the replay windows are never saved
    shard.deviation_sum.checkpoint(io);
    shard.deviation_sketch.checkpoint(io);
  });
  io.each(layer_fold_, "layer_fold", extrema);
}

// --- ExperimentResult --------------------------------------------------------
//
// A finished cell's done file: the whole result, engine-shaped and
// wall-clock telemetry included, so a resumed campaign re-emits the cell's
// JSONL line and summary share bit for bit without re-running it.

namespace {

// A result's doubles are finite but for the recovery series' NaN marker
// ("no readable pair", printed as null): the JSONL and summary print them,
// and JSON has no other numbers. A restored non-finite value is a corrupt
// file, refused here rather than by an emitter later without the path.
[[noreturn]] void non_finite() {
  throw CkptError("non-finite number in a cell result (corrupt file)");
}

void finite(CkptIo& io, double& v) {
  io.f64(v);
  if (!io.saving() && !std::isfinite(v)) non_finite();
}

}  // namespace

void ObsHistogram::checkpoint(CkptIo& io) {
  GTRIX_CKPT_SIZEOF(ObsHistogram, 128);
  io.each(counts_, "window histogram bin", &CkptIo::u64);
}

void ExperimentResult::checkpoint(CkptIo& io) {
  GTRIX_CKPT_FIELDS(ExperimentResult, 8);
  SkewReport& s = skew;
  GTRIX_CKPT_FIELDS(SkewReport, 12);
  io.vec(s.intra_by_layer, 8, "intra_by_layer", finite);
  io.vec(s.inter_by_layer, 8, "inter_by_layer", finite);
  io.vec(s.spread_by_layer, 8, "spread_by_layer", finite);
  finite(io, s.max_intra);
  finite(io, s.max_inter);
  finite(io, s.local_skew);
  finite(io, s.global_skew);
  io.i64(s.sigma_lo);
  io.i64(s.sigma_hi);
  io.u64(s.pairs_checked);
  io.u64(s.pairs_skipped);
  DeviationStats& dev = s.deviations;
  GTRIX_CKPT_FIELDS(DeviationStats, 5);
  io.u64(dev.count);
  finite(io, dev.mean);
  finite(io, dev.p50);
  finite(io, dev.p90);
  finite(io, dev.p99);

  ExperimentCounters& c = counters;
  GTRIX_CKPT_FIELDS(ExperimentCounters, 10);
  io.u64(c.iterations);
  io.u64(c.late_broadcasts);
  io.u64(c.guard_aborts);
  io.u64(c.watchdog_resets);
  io.u64(c.timeout_branches);
  io.u64(c.duplicate_drops);
  io.u64(c.events_executed);
  io.u64(c.messages_sent);
  io.u64(c.messages_delivered);
  io.u64(c.delivery_events);

  finite(io, thm11_bound);
  finite(io, global_bound);
  io.u32(diameter);

  RealignStats& r = realign;
  GTRIX_CKPT_FIELDS(RealignStats, 2);
  io.u32(r.nodes_shifted);
  io.i64(r.max_abs_shift);

  RecoveryReport& rec = recovery;
  GTRIX_CKPT_FIELDS(RecoveryReport, 7);
  io.flag(rec.enabled);
  io.i64(rec.corrupt_wave);
  io.i64(rec.scan_hi);
  finite(io, rec.threshold);
  io.flag(rec.recovered);
  io.i64(rec.recovered_wave);
  io.vec(rec.local_by_wave, 8, "local_by_wave", [](CkptIo& io, double& v) {
    io.f64(v);  // raw bits: the NaN marker survives
    if (!io.saving() && std::isinf(v)) non_finite();
  });

  EngineStats& e = engine_stats;
  GTRIX_CKPT_FIELDS(EngineStats, 12);
  io.flag(e.enabled);
  io.each(e.counters, "telemetry counter", &CkptIo::u64);
  e.window_events.checkpoint(io);
  io.vec(e.shards, 4 * 8, "shard row", [](CkptIo& io, EngineShardStats& row) {
    GTRIX_CKPT_FIELDS(EngineShardStats, 4);
    io.u64(row.windows);
    io.u64(row.envelopes_drained);
    finite(io, row.busy_seconds);
    finite(io, row.barrier_wait_seconds);
  });
  finite(io, e.run_wall_seconds);
  finite(io, e.peak_rss_mb);
  io.u64(e.checkpoints_written);
  io.u64(e.checkpoint_bytes);
  io.u64(e.checkpoints_restored);
  io.u64(e.cells_resumed_done);
  finite(io, e.checkpoint_write_seconds);
  finite(io, e.checkpoint_restore_seconds);
}

}  // namespace gtrix
