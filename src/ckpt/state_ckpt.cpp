// Member checkpoint functions for the engine-layer state holders: RNG
// streams, statistics accumulators, the event queue / simulator, the
// network (mailboxes included) and the metrics recorder / streaming skew
// accumulators. Defined here -- not in each class's own TU -- so the whole
// binary serialization of the engine lives in src/ckpt and the state
// classes only carry declarations.
#include <vector>

#include "ckpt/codec.hpp"
#include "ckpt/detail.hpp"
#include "metrics/recorder.hpp"
#include "metrics/streaming.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace gtrix {

// --- Rng ---------------------------------------------------------------------

void Rng::checkpoint_save(CkptWriter& w) const {
  GTRIX_CKPT_SIZEOF(Rng, 48);
  for (std::uint64_t word : state_) w.u64(word);
  w.u8(have_cached_normal_ ? 1 : 0);
  w.f64(cached_normal_);
}

void Rng::checkpoint_restore(CkptCursor& cur) {
  for (std::uint64_t& word : state_) word = cur.u64();
  have_cached_normal_ = cur.u8() != 0;
  cached_normal_ = cur.f64();
}

// --- Summary -----------------------------------------------------------------

void Summary::checkpoint_save(CkptWriter& w) const {
  GTRIX_CKPT_SIZEOF(Summary, 48);
  w.u64(n_);
  w.f64(mean_);
  w.f64(m2_);
  w.f64(min_);
  w.f64(max_);
  w.f64(sum_);
}

void Summary::checkpoint_restore(CkptCursor& cur) {
  n_ = static_cast<std::size_t>(cur.u64());
  mean_ = cur.f64();
  m2_ = cur.f64();
  min_ = cur.f64();
  max_ = cur.f64();
  sum_ = cur.f64();
}

// --- LogQuantileSketch -------------------------------------------------------

void LogQuantileSketch::checkpoint_save(CkptWriter& w) const {
  GTRIX_CKPT_SIZEOF(LogQuantileSketch, 72);
  w.u64(counts_.size());
  for (std::uint64_t c : counts_) w.u64(c);
  w.u64(zero_);
  w.u64(overflow_high_);
  w.u64(total_);
}

void LogQuantileSketch::checkpoint_restore(CkptCursor& cur) {
  const std::uint64_t bins = cur.u64();
  if (bins != counts_.size()) {
    throw CkptError("checkpoint quantile sketch has " + std::to_string(bins) +
                    " bins, this configuration has " + std::to_string(counts_.size()));
  }
  for (std::uint64_t& c : counts_) c = cur.u64();
  zero_ = cur.u64();
  overflow_high_ = cur.u64();
  total_ = static_cast<std::size_t>(cur.u64());
}

// --- EventQueue --------------------------------------------------------------
//
// The snapshot is the SLOT TABLE, exactly: indices, generation counters,
// live payloads with their (time, seq) keys, and the freelist chain order.
// Reproducing all of that makes a restore transparent to everything holding
// a TimerHandle (arena lanes) and to the (time, seq) total order -- the
// next event scheduled after a restore gets the same slot, generation and
// sequence number it would have gotten in the uninterrupted run. Only the
// calendar's bucket geometry is rebuilt rather than copied: it is
// engine-shaped state with no influence on the event order.

void EventQueue::checkpoint_save(CkptWriter& w, const CkptTargetMap& targets) const {
  GTRIX_CKPT_SIZEOF(EventQueue, 208);
  GTRIX_CKPT_FIELDS(Slot, 7);
  GTRIX_CKPT_FIELDS(QueueEntry, 5);
  GTRIX_CKPT_FIELDS(EventPayload, 5);
  w.u64(next_seq_);
  w.u64(scheduled_);
  w.u64(executed_);
  w.u64(cancelled_);
  w.u64(purged_);
  w.u64(rebuilds_);

  // Harvest each live slot's sequence number from the calendar (the slot
  // itself does not store it).
  std::vector<std::uint64_t> seq_of(slots_.size(), 0);
  std::vector<std::uint8_t> has_seq(slots_.size(), 0);
  for (const std::vector<QueueEntry>& bucket : buckets_) {
    for (const QueueEntry& entry : bucket) {
      if (!stale(entry)) {
        seq_of[entry.slot] = entry.seq;
        has_seq[entry.slot] = 1;
      }
    }
  }

  w.u64(slots_.size());
  std::size_t live_written = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    w.u32(slot.gen);
    w.u8(slot.live ? 1 : 0);
    if (!slot.live) continue;
    GTRIX_CHECK_MSG(has_seq[i], "live event slot missing from the priority structure");
    w.f64(slot.time);
    w.u32(slot.kind);
    w.u32(slot.payload.a);
    w.u32(slot.payload.b);
    w.u32(slot.payload.c);
    w.i64(slot.payload.i);
    w.f64(slot.payload.f);
    w.u32(targets.id_of(slot.target));
    w.u64(seq_of[i]);
    ++live_written;
  }
  GTRIX_CHECK_MSG(live_written == live_, "event queue live count out of sync");

  std::vector<std::uint32_t> chain;
  chain.reserve(slots_.size() - live_);
  for (std::uint32_t i = free_head_; i != kInvalidEventSlot; i = slots_[i].next_free) {
    chain.push_back(i);
  }
  w.u64(chain.size());
  for (std::uint32_t i : chain) w.u32(i);
}

void EventQueue::checkpoint_restore(CkptCursor& cur, const CkptTargetMap& targets) {
  next_seq_ = cur.u64();
  scheduled_ = cur.u64();
  executed_ = cur.u64();
  cancelled_ = cur.u64();
  purged_ = cur.u64();
  rebuilds_ = cur.u64();

  const std::uint64_t nslots = cur.count(4 + 1, "event slot");  // gen + live flag
  slots_.assign(nslots, Slot{});
  struct LiveRef {
    std::uint32_t slot;
    std::uint64_t seq;
  };
  std::vector<LiveRef> lives;
  live_ = 0;
  for (std::size_t i = 0; i < nslots; ++i) {
    Slot& slot = slots_[i];
    slot.gen = cur.u32();
    slot.live = cur.u8() != 0;
    slot.next_free = kInvalidEventSlot;
    if (!slot.live) continue;
    slot.time = cur.f64();
    slot.kind = cur.u32();
    slot.payload.a = cur.u32();
    slot.payload.b = cur.u32();
    slot.payload.c = cur.u32();
    slot.payload.i = cur.i64();
    slot.payload.f = cur.f64();
    slot.target = targets.target_of(cur.u32());
    lives.push_back({static_cast<std::uint32_t>(i), cur.u64()});
    ++live_;
  }

  const std::uint64_t nfree = cur.count(4, "event freelist entry");
  if (nfree + live_ != nslots) {
    throw CkptError("checkpoint event queue freelist inconsistent (corrupt file)");
  }
  free_head_ = kInvalidEventSlot;
  std::uint32_t prev = kInvalidEventSlot;
  for (std::uint64_t k = 0; k < nfree; ++k) {
    const std::uint32_t idx = cur.u32();
    if (idx >= nslots || slots_[idx].live) {
      throw CkptError("checkpoint event queue freelist corrupt");
    }
    if (prev == kInvalidEventSlot) {
      free_head_ = idx;
    } else {
      slots_[prev].next_free = idx;
    }
    prev = idx;
  }

  // Reset the calendar and refill it from the exact (time, seq) pairs,
  // refit to the restored population (same policy as any purge rebuild);
  // bucket geometry is engine-shaped state.
  buckets_.clear();
  buckets_.resize(8);  // kMinBuckets; the rebuild below refits the size
  bucket_mask_ = buckets_.size() - 1;
  width_ = 1.0;
  inv_width_ = 1.0;
  entry_count_ = 0;
  dead_ = 0;
  cur_epoch_ = 0;
  peek_ = PeekRef{};
  for (const LiveRef& ref : lives) {
    calendar_insert(
        QueueEntry{slots_[ref.slot].time, ref.seq, 0, ref.slot, slots_[ref.slot].gen});
  }
  calendar_rebuild(8);
}

// --- Simulator ---------------------------------------------------------------

void Simulator::checkpoint_save(CkptWriter& w, const CkptTargetMap& targets) const {
  GTRIX_CKPT_SIZEOF(Simulator, 216);
  w.f64(now_);
  queue_.checkpoint_save(w, targets);
}

void Simulator::checkpoint_restore(CkptCursor& cur, const CkptTargetMap& targets) {
  now_ = cur.f64();
  queue_.checkpoint_restore(cur, targets);
}

// --- Network -----------------------------------------------------------------

void Network::checkpoint_save(CkptWriter& w) const {
  GTRIX_CKPT_SIZEOF(Network, 440);
  GTRIX_CKPT_FIELDS(DeferCell, 3);
  GTRIX_CKPT_FIELDS(ShardCounters, 4);
  GTRIX_CKPT_FIELDS(ShardEnvelope, 5);
  // A kFlushArrivals event never outlives its instant, so no arrival can be
  // deferred at a snapshot barrier; the cells carry no persistent state.
  for (const DeferCell& cell : defer_) {
    GTRIX_CHECK_MSG(!cell.active && cell.buf.empty(),
                    "checkpoint taken mid-instant: deferred arrivals pending");
  }
  w.u64(sent_);
  w.u64(delivered_);
  w.u64(delivery_events_);
  w.u64(envelopes_published_);
  w.u32(shard_count_);
  w.u64(shard_counters_.size());
  for (const ShardCounters& c : shard_counters_) {
    w.u64(c.sent);
    w.u64(c.delivered);
    w.u64(c.delivery_events);
    w.u64(c.envelopes_drained);
  }
  const auto write_matrix = [&w](const std::vector<std::vector<ShardEnvelope>>& matrix) {
    w.u64(matrix.size());
    for (const std::vector<ShardEnvelope>& cell : matrix) {
      w.u64(cell.size());
      for (const ShardEnvelope& e : cell) {
        w.f64(e.arrival);
        w.u32(e.from);
        w.u32(e.edge);
        w.u32(e.to);
        w.i64(e.stamp);
      }
    }
  };
  write_matrix(mail_);
  write_matrix(pending_);
}

void Network::checkpoint_restore(CkptCursor& cur) {
  sent_ = cur.u64();
  delivered_ = cur.u64();
  delivery_events_ = cur.u64();
  envelopes_published_ = cur.u64();
  const std::uint32_t shards = cur.u32();
  if (shards != shard_count_) {
    throw CkptError("checkpoint was taken with " + std::to_string(shards) +
                    " network shard(s), this run has " + std::to_string(shard_count_));
  }
  const std::uint64_t ncounters = cur.u64();
  if (ncounters != shard_counters_.size()) {
    throw CkptError("checkpoint shard counter table size mismatch");
  }
  for (ShardCounters& c : shard_counters_) {
    c.sent = cur.u64();
    c.delivered = cur.u64();
    c.delivery_events = cur.u64();
    c.envelopes_drained = cur.u64();
  }
  const auto read_matrix = [&cur](std::vector<std::vector<ShardEnvelope>>& matrix,
                                  const char* which) {
    const std::uint64_t cells = cur.u64();
    if (cells != matrix.size()) {
      throw CkptError(std::string("checkpoint mailbox matrix '") + which +
                      "' size mismatch (different shard layout)");
    }
    for (std::vector<ShardEnvelope>& cell : matrix) {
      cell.clear();
      const std::uint64_t n = cur.count(8 + 3 * 4 + 8, "mailbox envelope");
      cell.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        ShardEnvelope e;
        e.arrival = cur.f64();
        e.from = cur.u32();
        e.edge = cur.u32();
        e.to = cur.u32();
        e.stamp = cur.i64();
        cell.push_back(e);
      }
    }
  };
  read_matrix(mail_, "mail");
  read_matrix(pending_, "pending");
}

// --- Recorder ----------------------------------------------------------------

void Recorder::checkpoint_save(CkptWriter& w) const {
  GTRIX_CKPT_SIZEOF(Recorder, 136);
  GTRIX_CKPT_FIELDS(NodeLog, 8);
  GTRIX_CKPT_FIELDS(IterationRecord, 14);
  w.i64(min_sigma_);
  w.i64(max_sigma_);
  w.u64(pulses_recorded_);
  w.u64(pinned_pulses_);  // anchor/box bounds are config-derived, not state
  // Every registered node gets a log record; without kept logs (un-anchored
  // streaming) each is an empty one, exactly as if the logs existed.
  w.u64(metas_.size());
  for (RecNodeId node = 0; node < metas_.size(); ++node) {
    const NodeLog& log = log_of(node);
    w.i64(log.first_sigma);
    w.u64(log.times.size());
    for (SimTime t : log.times) w.f64(t);  // raw bits: NaN = missing survives
    w.u64(log.iterations.size());
    for (const IterationRecord& rec : log.iterations) ckpt::write_iteration(w, rec);
    // Corruption-anchored retention state (all empty under full recording).
    w.u64(log.early.size());
    for (Sigma s : log.early) w.i64(s);
    w.i64(log.pin_first);
    w.u64(log.pin_times.size());
    for (SimTime t : log.pin_times) w.f64(t);
    w.i64(log.lost_lo);
    w.i64(log.lost_hi);
  }
}

void Recorder::checkpoint_restore(CkptCursor& cur) {
  min_sigma_ = cur.i64();
  max_sigma_ = cur.i64();
  pulses_recorded_ = cur.u64();
  pinned_pulses_ = cur.u64();
  const std::uint64_t nodes = cur.u64();
  if (nodes != metas_.size()) {
    throw CkptError("checkpoint recorder covers " + std::to_string(nodes) +
                    " node(s), this configuration registers " + std::to_string(metas_.size()));
  }
  // Without kept logs (un-anchored streaming) the snapshot's records are the
  // empty logs its writer emitted; they decode into a scratch log and drop.
  NodeLog scratch;
  for (RecNodeId node = 0; node < metas_.size(); ++node) {
    NodeLog& log = keeps_logs() ? logs_[node] : scratch;
    log.first_sigma = cur.i64();
    const std::uint64_t ntimes = cur.count(8, "pulse time");
    log.times.resize(ntimes);
    for (SimTime& t : log.times) t = cur.f64();
    const std::uint64_t niters = cur.count(ckpt::kIterationBytes, "iteration record");
    log.iterations.clear();
    log.iterations.reserve(niters);
    for (std::uint64_t i = 0; i < niters; ++i) {
      log.iterations.push_back(ckpt::read_iteration(cur));
    }
    const std::uint64_t nearly = cur.count(8, "early wave");
    log.early.resize(nearly);
    for (Sigma& s : log.early) s = cur.i64();
    log.pin_first = cur.i64();
    const std::uint64_t npin_times = cur.count(8, "pinned pulse time");
    log.pin_times.resize(npin_times);
    for (SimTime& t : log.pin_times) t = cur.f64();
    log.lost_lo = cur.i64();
    log.lost_hi = cur.i64();
  }
}

// --- StreamingSkew -----------------------------------------------------------

namespace {

template <typename T, typename WriteFn>
void write_vec(CkptWriter& w, const std::vector<T>& v, WriteFn&& fn) {
  w.u64(v.size());
  for (const T& x : v) fn(x);
}

void check_vec_size(CkptCursor& cur, std::size_t expected, const char* what) {
  const std::uint64_t n = cur.u64();
  if (n != expected) {
    throw CkptError(std::string("checkpoint streaming-skew lane '") + what +
                    "' size mismatch (different grid or ring configuration)");
  }
}

}  // namespace

void StreamingSkew::checkpoint_save(CkptWriter& w) const {
  GTRIX_CKPT_SIZEOF(StreamingSkew, 496);
  GTRIX_CKPT_FIELDS(WaveExtrema, 3);
  write_vec(w, held_sigma_, [&w](Sigma s) { w.i64(s); });
  write_vec(w, held_time_, [&w](SimTime t) { w.f64(t); });
  write_vec(w, recorded_, [&w](std::int64_t n) { w.i64(n); });
  w.u64(held_steady_.size());
  for (std::size_t i = 0; i < held_steady_.size(); ++i) w.u8(held_steady_[i] ? 1 : 0);
  write_vec(w, ring_sigma_, [&w](Sigma s) { w.i64(s); });
  write_vec(w, ring_time_, [&w](SimTime t) { w.f64(t); });
  write_vec(w, intra_by_layer_, [&w](double d) { w.f64(d); });
  write_vec(w, inter_by_layer_, [&w](double d) { w.f64(d); });
  write_vec(w, spread_by_layer_, [&w](double d) { w.f64(d); });
  write_vec(w, layer_ring_, [&w](const WaveExtrema& e) {
    w.i64(e.sigma);
    w.f64(e.min);
    w.f64(e.max);
  });
  w.u64(pairs_checked_);
  w.u64(window_overflows_);
  w.u64(out_of_order_);
  w.u64(suppressed_);  // the anchor itself is config-derived, not state
  deviation_summary_.checkpoint_save(w);
  deviation_sketch_.checkpoint_save(w);
}

void StreamingSkew::checkpoint_restore(CkptCursor& cur) {
  check_vec_size(cur, held_sigma_.size(), "held_sigma");
  for (Sigma& s : held_sigma_) s = cur.i64();
  check_vec_size(cur, held_time_.size(), "held_time");
  for (SimTime& t : held_time_) t = cur.f64();
  check_vec_size(cur, recorded_.size(), "recorded");
  for (std::int64_t& n : recorded_) n = cur.i64();
  check_vec_size(cur, held_steady_.size(), "held_steady");
  for (std::size_t i = 0; i < held_steady_.size(); ++i) held_steady_[i] = cur.u8() != 0;
  check_vec_size(cur, ring_sigma_.size(), "ring_sigma");
  for (Sigma& s : ring_sigma_) s = cur.i64();
  check_vec_size(cur, ring_time_.size(), "ring_time");
  for (SimTime& t : ring_time_) t = cur.f64();
  check_vec_size(cur, intra_by_layer_.size(), "intra_by_layer");
  for (double& d : intra_by_layer_) d = cur.f64();
  check_vec_size(cur, inter_by_layer_.size(), "inter_by_layer");
  for (double& d : inter_by_layer_) d = cur.f64();
  check_vec_size(cur, spread_by_layer_.size(), "spread_by_layer");
  for (double& d : spread_by_layer_) d = cur.f64();
  check_vec_size(cur, layer_ring_.size(), "layer_ring");
  for (WaveExtrema& e : layer_ring_) {
    e.sigma = cur.i64();
    e.min = cur.f64();
    e.max = cur.f64();
  }
  pairs_checked_ = cur.u64();
  window_overflows_ = cur.u64();
  out_of_order_ = cur.u64();
  suppressed_ = cur.u64();
  deviation_summary_.checkpoint_restore(cur);
  deviation_sketch_.checkpoint_restore(cur);
}

}  // namespace gtrix
