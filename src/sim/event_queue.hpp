// Deterministic discrete-event scheduler with typed POD events.
//
// Design (see docs/performance.md, "Calendar-queue scheduler"):
//  * An event is plain data -- {time, target, kind, payload} -- not a
//    heap-allocated closure. Dispatch goes through the small TimerTarget
//    interface: the engine calls target->on_timer(event) at fire time.
//  * Event state lives in recycled slots. A freelist returns a slot the
//    moment its event fires or is cancelled, so memory is O(pending events),
//    not O(events ever executed). cancel() unlinks the event from the
//    calendar at once, so the calendar holds exactly the pending events.
//  * Every slot carries a generation counter, bumped whenever the slot is
//    freed. A TimerHandle is {slot, generation}; a handle whose generation
//    no longer matches is stale, so cancelling an already-fired, already-
//    cancelled, or recycled event is a safe no-op.
//  * Events are ordered by (time, sequence number); the sequence number is
//    assigned at schedule time, so two events scheduled for the same instant
//    fire in scheduling order. Entire simulations are bit-reproducible.
//  * A caller may take a sequence number now and schedule at that key
//    later (take_seq, schedule_at_key), or move a pending event to another
//    key (rekey). An event at a reserved key fires exactly where one
//    scheduled when the number was taken would have, which lets a node
//    keep one entry for several timers (core/gradient_node.hpp).
//
// The priority structure is a calendar queue (Brown 1988): an array of time
// buckets whose width is fitted so that each holds a few pending events --
// about twice the mean gap between them where they are spread evenly,
// narrower where they cluster (calendar_fit). The buckets are intrusive
// lists threaded through the slot table: a bucket is a head index and a
// size, and each slot links to the next one in its bucket. So schedule,
// cancel and pop are O(1) bucket operations instead of O(log n) heap sifts
// on pointer-cold array levels, and the run loop allocates nothing per
// bucket.
// tests/binary_heap_queue.hpp keeps a binary-heap queue with the same
// (time, seq) order as the differential oracle for
// tests/test_calendar_queue.cpp.
#pragma once

#include <compare>
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

/// An event's place in the one total order: time first, then the sequence
/// number. The default key is no event: it sorts after every finite time.
struct EventKey {
  SimTime time = kTimeInfinity;
  std::uint64_t seq = 0;

  bool operator==(const EventKey&) const = default;
  auto operator<=>(const EventKey&) const = default;
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

  /// Takes the sequence number the next schedule() would take, for an event
  /// scheduled at that key later: schedule_at_key(), or rekey() of a
  /// pending event.
  std::uint64_t take_seq() noexcept { return next_seq_++; }

  /// schedule() at a key whose sequence number take_seq() reserved. It
  /// takes no number itself, so the event fires where one scheduled when
  /// the number was taken would have fired.
  TimerHandle schedule_at_key(EventKey key, TimerTarget* target, std::uint32_t kind,
                              EventPayload payload = {});

  /// Moves a pending event to another key (a reserved one, or its own) and
  /// replaces its kind and payload; the handle stays valid. In place, O(1),
  /// when the time is unchanged, the sequence number does not fall and the
  /// next entry of its bucket fires strictly later: the steady re-arm of a
  /// timer. Otherwise an unlink and an insert.
  void rekey(TimerHandle handle, EventKey key, std::uint32_t kind, EventPayload payload = {});

  /// Cancels a previously scheduled event and frees its slot immediately.
  /// Stale handles (already fired / cancelled / recycled) return false.
  bool cancel(TimerHandle handle);

  /// True while the referenced event is scheduled and not yet fired.
  bool pending(TimerHandle handle) const noexcept;

  /// The key of a pending event.
  EventKey key_of(TimerHandle handle) const noexcept {
    const Slot& slot = slots_[handle.slot];
    return {slot.time, slot.seq};
  }

  bool empty() const noexcept { return live_ == 0; }

  /// Time of the next event; undefined if empty().
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
  /// Successful cancel() calls: the entries the queue unlinked before they
  /// fired. Node-issued timer cancellations are counted by the Simulator
  /// (Simulator::timer_cancels), since a node may resolve one without the
  /// queue.
  std::uint64_t cancelled_count() const noexcept { return cancelled_; }
  std::size_t pending_count() const noexcept { return live_; }

  /// High-water mark of simultaneously pending events: the slot table never
  /// exceeds the peak pending count (churn tests assert this stays flat).
  std::size_t slot_capacity() const noexcept { return slots_.size(); }

  /// Calendar internals exposed read-only for tests: bucket count, current
  /// bucket width, rebuild count.
  std::size_t calendar_buckets() const noexcept { return buckets_.size(); }
  double calendar_width() const noexcept { return width_; }
  std::uint64_t calendar_rebuilds() const noexcept { return rebuilds_; }
  /// Entries already in the target bucket, summed over every insert (a
  /// schedule, or a rekey that moves its entry). Divided by
  /// scheduled_count() it is about the bucket size an insert meets.
  /// Engine-shaped, and not part of a snapshot: a restored queue counts
  /// from its restore.
  std::uint64_t insert_occupancy() const noexcept { return insert_occupancy_; }
  /// Buckets the cursor visited to locate a minimum, summed over every
  /// located minimum (a lap that finds no due entry counts the whole year).
  /// Divided by executed_count() it is the buckets a pop visits. Engine-
  /// shaped, and not part of a snapshot, like insert_occupancy().
  std::uint64_t pop_visits() const noexcept { return pop_visits_; }

  /// Walks the whole calendar and checks its invariants: each live slot
  /// sits exactly once in the chain of the bucket its time maps to, chains
  /// ascend by (time, seq), bucket sizes sum to pending_count(), and no
  /// live slot is behind the cursor. Returns the entries it walked.
  /// O(slot table + buckets), so the queue itself calls it only in
  /// GTRIX_DEBUG_CHECKS builds (after every fit and behind-cursor insert;
  /// a moving rekey checks the two chains it touched); tests call it
  /// directly.
  std::size_t calendar_verify() const;

  /// Checkpoint codec (src/ckpt/state_ckpt.cpp). The snapshot preserves the
  /// exact slot table -- indices, generations, freelist order and the
  /// per-slot sequence numbers -- so outstanding TimerHandles stay valid
  /// across a restore and the (time, seq) total order continues
  /// unperturbed. The calendar itself is refilled from the restored slot
  /// table and refit (width and bucket layout are engine-shaped, not part
  /// of the simulated behaviour). Targets round-trip through `targets` ids.
  void checkpoint(CkptIo& io, const CkptTargetMap& targets);

 private:
  /// One event, key and payload together. `next` threads the slot through
  /// its bucket's chain while live and through the freelist while free.
  struct Slot {
    EventPayload payload{};
    TimerTarget* target = nullptr;
    SimTime time = 0.0;
    std::uint64_t seq = 0;  ///< schedule order; breaks same-time ties FIFO
    std::uint32_t kind = 0;
    std::uint32_t gen = 0;  ///< bumped on every free; stale handles mismatch
    std::uint32_t next = kInvalidEventSlot;
    bool live = false;
  };

  /// A calendar bucket: the head of its chain, which ascends by (time, seq),
  /// and the chain's length.
  struct Bucket {
    std::uint32_t head = kInvalidEventSlot;
    std::uint32_t size = 0;
  };

  /// A live slot's sort key: a rebuild copies these out of the slot table
  /// and sorts them as one contiguous array.
  struct RebuildKey {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// Lexicographic (time, seq) order -- the one total event order.
  template <class A, class B>
  static bool fires_before(const A& a, const B& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  /// The pop routine behind run_next_due / run_next_strictly_before: locates
  /// the minimum once and dispatches it when its time is below `bound`
  /// (or equal to it, when `inclusive`).
  bool run_next_below(SimTime bound, bool inclusive, SimTime& fired);

  /// Epoch = which width_-sized time window a timestamp falls in. Exact
  /// integer bookkeeping (no accumulated float boundaries): a slot lives in
  /// bucket epoch mod nbuckets and belongs to the cursor's window iff its
  /// epoch equals the scan epoch. Epochs are computed from the time under
  /// the current width whenever they are needed, never cached, so a
  /// rebuild that refits the width cannot leave one stale.
  long long epoch_of(SimTime t) const noexcept;
  std::size_t bucket_of_epoch(long long epoch) const noexcept;
  Bucket& bucket_of(const Slot& slot) noexcept {
    return buckets_[bucket_of_epoch(epoch_of(slot.time))];
  }
  /// The insert-side rebuild triggers (growth and crowding), checked
  /// before each insert while the new slot is not yet live.
  void calendar_refit_if_due();
  /// Links a freshly scheduled slot into its bucket's chain.
  void calendar_insert(std::uint32_t index);
  /// Removes a live slot from its bucket's chain.
  void calendar_unlink(std::uint32_t index);
  /// Locates the (time, seq)-minimum live slot, caching it in peek_.
  /// Returns false when the queue is empty.
  bool calendar_find_min() const;
  /// Rebuilds the calendar with a bucket count / width fitted to the
  /// current live population.
  void calendar_rebuild(std::size_t min_buckets);
  /// calendar_verify's check of bucket b's chain, which it returns the
  /// length of; `linked`, when given, marks each slot to catch one linked
  /// twice.
  std::size_t calendar_verify_chain(std::size_t b, std::vector<bool>* linked) const;
  /// Collects the live slots from the slot table, fits the bucket count
  /// and width to them and links them into the buckets. The rebuild and
  /// the checkpoint refill share it.
  void calendar_fit(std::size_t min_buckets);

  static constexpr std::size_t kMinBuckets = 8;

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kInvalidEventSlot;
  std::uint64_t next_seq_ = 0;
  std::uint64_t scheduled_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t live_ = 0;

  // Calendar state.
  std::vector<Bucket> buckets_;
  double width_ = 1.0;
  double inv_width_ = 1.0;        ///< 1 / width_; epochs use the multiply form
  std::size_t bucket_mask_ = 0;   ///< buckets_.size() - 1 (power of two)
  /// Scan cursor: no live slot has an epoch below this (inserts behind the
  /// cursor pull it back), so the year scan meets the global minimum first.
  /// mutable, as are the peek cache and the visit counter: next_time()
  /// locates the minimum from a const peek.
  mutable long long cur_epoch_ = 0;
  /// The located minimum, the head of the cursor's bucket; or
  /// kInvalidEventSlot when it must be located again.
  mutable std::uint32_t peek_ = kInvalidEventSlot;
  mutable std::uint64_t pop_visits_ = 0;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t insert_occupancy_ = 0;
  /// Crowding refit (calendar_refit_if_due): inserts and their summed
  /// occupancy since the last fit or check, and the sum that triggers a
  /// refit.
  std::uint32_t crowd_inserts_ = 0;
  std::uint64_t crowd_occupancy_ = 0;
  std::uint64_t crowd_limit_ = 0;
  std::vector<RebuildKey> rebuild_scratch_;  ///< reused across rebuilds
};

}  // namespace gtrix
