// Deterministic discrete-event scheduler with typed POD events.
//
// Design (see docs/performance.md, "Calendar-queue scheduler"):
//  * An event is plain data -- {time, target, kind, payload} -- not a
//    heap-allocated closure. Dispatch goes through the small TimerTarget
//    interface: the engine calls target->on_timer(event) at fire time.
//  * Event state lives in recycled slots. A freelist returns a slot the
//    moment its event fires or is cancelled, so memory is O(pending events),
//    not O(events ever executed). Cancellation is lazy (a cancelled entry is
//    skimmed when a scan meets it), which keeps cancel() O(1).
//  * Every slot carries a generation counter, bumped whenever the slot is
//    freed. A TimerHandle is {slot, generation}; a handle whose generation
//    no longer matches is stale, so cancelling an already-fired, already-
//    cancelled, or recycled event is a safe no-op.
//  * Events are ordered by (time, sequence number); the sequence number is
//    assigned at schedule time, so two events scheduled for the same instant
//    fire in scheduling order. Entire simulations are bit-reproducible.
//
// The priority structure is a calendar queue (Brown 1988): an array of time
// buckets whose width is fitted so that each holds a few pending events --
// about twice the mean gap between them where they are spread evenly,
// narrower where they cluster (calendar_fit). So schedule and pop are O(1)
// bucket operations instead of O(log n) heap sifts on pointer-cold array
// levels.
// tests/binary_heap_queue.hpp keeps a binary-heap queue with the same
// (time, seq) order as the differential oracle for
// tests/test_calendar_queue.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace gtrix {

class CkptIo;
class CkptTargetMap;

inline constexpr std::uint32_t kInvalidEventSlot = 0xffffffffU;

/// POD payload carried by every event, interpreted by the target according
/// to the event kind. The fields are deliberately generic so one layout
/// serves message delivery (a=from, b=edge, c=to, i=stamp), local-time
/// timers (f=threshold) and index-carrying ticks (i=pulse index) alike.
struct EventPayload {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  std::int64_t i = 0;
  double f = 0.0;
};

/// The typed event handed to TimerTarget::on_timer. `time` is the absolute
/// simulation time the event was scheduled for (== fire time).
struct Event {
  SimTime time = 0.0;
  std::uint32_t kind = 0;
  EventPayload payload{};
};

/// Dispatch interface. Anything that schedules events implements this and
/// demultiplexes on Event::kind (each class defines its own kind enum).
/// Targets are non-owning: the engine never deletes them, so no virtual
/// destructor is needed (and kept protected to prevent misuse).
class TimerTarget {
 public:
  virtual void on_timer(const Event& event) = 0;

 protected:
  ~TimerTarget() = default;
};

/// First-class cancellable reference to a scheduled event. Default-
/// constructed handles are invalid; handles become stale (cancel() and
/// pending() return false) once the event fires or is cancelled.
struct TimerHandle {
  std::uint32_t slot = kInvalidEventSlot;
  std::uint32_t gen = 0;

  constexpr explicit operator bool() const noexcept { return slot != kInvalidEventSlot; }
  constexpr void reset() noexcept {
    slot = kInvalidEventSlot;
    gen = 0;
  }
};

class EventQueue {
 public:
  EventQueue();

  /// Schedules an event for `target` at absolute time `t`. Returns a handle
  /// usable with cancel() / pending() until the event fires.
  TimerHandle schedule(SimTime t, TimerTarget* target, std::uint32_t kind,
                       EventPayload payload = {});

  /// Cancels a previously scheduled event and frees its slot immediately.
  /// Stale handles (already fired / cancelled / recycled) return false.
  bool cancel(TimerHandle handle);

  /// True while the referenced event is scheduled and not yet fired.
  bool pending(TimerHandle handle) const noexcept;

  bool empty() const noexcept { return live_ == 0; }

  /// Time of the next (non-cancelled) event; undefined if empty().
  SimTime next_time() const;

  /// Pops and dispatches the next event; returns false if the queue was
  /// empty. The event's slot is recycled before dispatch, so the handler may
  /// immediately reschedule without growing the slot table.
  bool run_next();

  /// run_next() gated on the event being due: pops and dispatches only if
  /// the next event's time is <= deadline. `fired` is set to the event time
  /// BEFORE dispatch, so a driver passing its clock cursor exposes the
  /// correct now() to the handler. One minimum-location per event (the
  /// simulator's main loop).
  bool run_next_due(SimTime deadline, SimTime& fired);

  /// run_next_due with an exclusive bound: dispatches only events strictly
  /// before `horizon`. The sharded engine's window loop (runner/
  /// shard_driver.cpp) runs each shard up to but not including the window
  /// horizon, which is the earliest time a cross-shard message can land.
  bool run_next_strictly_before(SimTime horizon, SimTime& fired);

  std::uint64_t executed_count() const noexcept { return executed_; }
  std::uint64_t scheduled_count() const noexcept { return scheduled_; }
  /// Successful cancel() calls. Engine-invariant: cancellations are issued
  /// by node code, which behaves identically under every shard layout
  /// (telemetry's JSONL block relies on this).
  std::uint64_t cancelled_count() const noexcept { return cancelled_; }
  /// Lazily-cancelled entries physically removed by scan skims and purge
  /// rebuilds. Engine-SHAPED (calendar- and traffic-pattern dependent):
  /// summary telemetry only.
  std::uint64_t purged_count() const noexcept { return purged_; }
  std::size_t pending_count() const noexcept { return live_; }

  /// High-water mark of simultaneously pending events: the slot table never
  /// exceeds the peak pending count (churn tests assert this stays flat).
  std::size_t slot_capacity() const noexcept { return slots_.size(); }

  /// Calendar internals exposed read-only for tests: bucket count, current
  /// bucket width, rebuild count.
  std::size_t calendar_buckets() const noexcept { return buckets_.size(); }
  double calendar_width() const noexcept { return width_; }
  std::uint64_t calendar_rebuilds() const noexcept { return rebuilds_; }
  /// Entries already in the target bucket, summed over every insert
  /// (stale ones included: an insert scans past them too). Divided by
  /// scheduled_count() it is the mean bucket size an insert meets.
  /// Engine-shaped, and not part of a snapshot: a restored queue counts
  /// from its restore.
  std::uint64_t insert_occupancy() const noexcept { return insert_occupancy_; }

  /// Checkpoint codec (src/ckpt/state_ckpt.cpp). The snapshot preserves the
  /// exact slot table -- indices, generations, freelist order and the
  /// per-entry sequence numbers -- so outstanding TimerHandles stay valid
  /// across a restore and the (time, seq) total order continues
  /// unperturbed. The calendar itself is refit on restore (width and
  /// bucket layout are engine-shaped, not part of the simulated
  /// behaviour). Targets round-trip through `targets` ids.
  void checkpoint(CkptIo& io, const CkptTargetMap& targets);

 private:
  struct Slot {
    EventPayload payload{};
    TimerTarget* target = nullptr;
    SimTime time = 0.0;
    std::uint32_t kind = 0;
    std::uint32_t gen = 0;  ///< bumped on every free; stale handles mismatch
    std::uint32_t next_free = kInvalidEventSlot;
    bool live = false;
  };

  struct QueueEntry {
    SimTime time;
    std::uint64_t seq;  ///< schedule order; breaks same-time ties FIFO
    long long epoch;    ///< epoch_of(time), cached at insert
    std::uint32_t slot;
    std::uint32_t gen;
  };

  /// Lexicographic (time, seq) order -- the one total event order.
  static bool fires_before(const QueueEntry& a, const QueueEntry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  bool stale(const QueueEntry& entry) const noexcept {
    const Slot& s = slots_[entry.slot];
    return !s.live || s.gen != entry.gen;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  /// The pop routine behind run_next_due / run_next_strictly_before: locates
  /// the minimum once and dispatches it when its time is below `bound`
  /// (or equal to it, when `inclusive`).
  bool run_next_below(SimTime bound, bool inclusive, SimTime& fired);

  /// Epoch = which width_-sized time window a timestamp falls in. Exact
  /// integer bookkeeping (no accumulated float boundaries): an entry lives
  /// in bucket epoch mod nbuckets and belongs to the cursor's window iff
  /// its epoch equals the scan epoch.
  ///
  /// EPOCH FRESHNESS INVARIANT: a QueueEntry's cached epoch is only
  /// meaningful under the width_ in force when it was bucketed, so
  ///  (a) calendar_insert stamps entry.epoch AFTER its possible grow or
  ///      crowding rebuild, never before (a rebuild refits width_, and an
  ///      epoch computed under the old width would bucket the entry into a
  ///      year the scan never visits or visits too early), and
  ///  (b) calendar_fit re-stamps every surviving entry's epoch under the
  ///      new width as it redistributes them.
  /// Together with the cursor rule -- an insert with epoch < cur_epoch_
  /// pulls the cursor back to it -- this keeps behind-cursor inserts
  /// immediately after a lazy-cancel purge rebuild correct: the insert is
  /// bucketed and cursored under the post-purge width, so the year scan
  /// meets it first. tests/test_calendar_queue.cpp pins this with a
  /// directed purge -> behind-cursor-insert regression and a purge/resize
  /// differential fuzz against the binary-heap oracle at the >= 64k-pending
  /// scale-grid population.
  long long epoch_of(SimTime t) const noexcept;
  std::size_t bucket_of_epoch(long long epoch) const noexcept;
  void calendar_insert(const QueueEntry& entry);
  /// Locates the (time, seq)-minimum live entry, caching it in peek_.
  /// Returns false when no live entry exists.
  bool calendar_find_min() const;
  void calendar_pop_peeked();
  /// Rebuilds the calendar with a bucket count / width fitted to the
  /// current live population. Also drops all stale entries.
  void calendar_rebuild(std::size_t min_buckets);
  /// Fits the bucket count and width to the population in
  /// rebuild_scratch_ and distributes it into the (empty) buckets. The
  /// rebuild and the checkpoint refill share it.
  void calendar_fit(std::size_t min_buckets);
  std::size_t calendar_live() const noexcept { return entry_count_ - dead_; }
  /// GTRIX_DEBUG_CHECKS walk of the EPOCH FRESHNESS INVARIANT above: every
  /// live entry's cached epoch matches epoch_of(time) under the current
  /// width, sits in the bucket its epoch maps to, and none is behind the
  /// cursor. O(pending), so only the debug-assertion builds call it.
  void calendar_verify_epochs() const;

  static constexpr std::size_t kMinBuckets = 8;

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kInvalidEventSlot;
  std::uint64_t next_seq_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  /// mutable: the skims that remove stale entries run inside const peeks
  /// (same reason the calendar state below is mutable).
  mutable std::uint64_t purged_ = 0;
  std::size_t live_ = 0;

  // Calendar state. mutable: locating the minimum from const peeks
  // (next_time) skims stale entries and advances the cursor.
  mutable std::vector<std::vector<QueueEntry>> buckets_;
  double width_ = 1.0;
  double inv_width_ = 1.0;        ///< 1 / width_; epochs use the multiply form
  std::size_t bucket_mask_ = 0;   ///< buckets_.size() - 1 (power of two)
  mutable std::size_t entry_count_ = 0;  ///< bucket entries incl. stale
  mutable std::size_t dead_ = 0;         ///< stale entries not yet skimmed
  /// Scan cursor: no live entry has an epoch below this (inserts behind the
  /// cursor pull it back), so the year scan meets the global minimum first.
  mutable long long cur_epoch_ = 0;

  struct PeekRef {
    std::size_t bucket = 0;
    std::size_t index = 0;
    bool valid = false;
  };
  mutable PeekRef peek_;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t insert_occupancy_ = 0;
  /// Crowding refit (calendar_insert): inserts and their summed occupancy
  /// since the last fit or check, and the sum that triggers a refit.
  std::uint32_t crowd_inserts_ = 0;
  std::uint64_t crowd_occupancy_ = 0;
  std::uint64_t crowd_limit_ = 0;
  std::vector<QueueEntry> rebuild_scratch_;  ///< reused across rebuilds
};

}  // namespace gtrix
