// Binary-heap event queue: the differential oracle for the calendar queue.
//
// Deliberately independent of sim/event_queue.cpp -- a std::priority_queue
// over (time, seq) with lazy cancellation keyed by schedule index, no slot
// recycling, no buckets -- so tests/test_calendar_queue.cpp checks the
// calendar's bucket geometry, scan cursor, unlinks, rekeys and rebuilds
// against the plain definition of the order they must realize: ascending
// time, ties by sequence number, which is scheduling order unless a number
// was reserved earlier. Exposes the subset of the EventQueue interface the
// differential drivers use.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/event_queue.hpp"

namespace gtrix {

class BinaryHeapQueue {
 public:
  std::uint64_t take_seq() { return next_seq_++; }

  TimerHandle schedule(SimTime t, TimerTarget* target, std::uint32_t kind,
                       EventPayload payload = {}) {
    return schedule_at_key(EventKey{t, take_seq()}, target, kind, payload);
  }

  TimerHandle schedule_at_key(EventKey key, TimerTarget* target, std::uint32_t kind,
                              EventPayload payload = {}) {
    const auto id = static_cast<std::uint32_t>(version_.size());
    version_.push_back(1);
    targets_.push_back(target);
    heap_.push(Entry{key.time, key.seq, id, 1, target, kind, payload});
    return TimerHandle{id, 0};
  }

  /// By definition: a cancel, then a schedule at the new key that the
  /// handle refers to from then on.
  void rekey(TimerHandle handle, EventKey key, std::uint32_t kind, EventPayload payload = {}) {
    const std::uint32_t version = ++version_[handle.slot];
    heap_.push(
        Entry{key.time, key.seq, handle.slot, version, targets_[handle.slot], kind, payload});
  }

  /// True iff the event was still pending; fired or cancelled events are a
  /// no-op, like stale handles on the calendar queue.
  bool cancel(TimerHandle handle) {
    if (handle.slot >= version_.size() || version_[handle.slot] == 0) return false;
    version_[handle.slot] = 0;
    return true;
  }

  bool empty() {
    skim();
    return heap_.empty();
  }

  SimTime next_time() {
    skim();
    return heap_.top().time;
  }

  bool run_next() {
    SimTime fired;
    return run_next_due(kTimeInfinity, fired);
  }

  bool run_next_due(SimTime deadline, SimTime& fired) {
    skim();
    if (heap_.empty() || heap_.top().time > deadline) return false;
    dispatch_top(fired);
    return true;
  }

  bool run_next_strictly_before(SimTime horizon, SimTime& fired) {
    skim();
    if (heap_.empty() || heap_.top().time >= horizon) return false;
    dispatch_top(fired);
    return true;
  }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;  ///< breaks same-time ties
    std::uint32_t id;   ///< schedule index: what a handle names
    std::uint32_t version;
    TimerTarget* target;
    std::uint32_t kind;
    EventPayload payload;
    // priority_queue is a max-heap; invert to pop the (time, seq) minimum.
    bool operator<(const Entry& other) const noexcept {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  /// Drops cancelled and superseded entries from the top of the heap.
  void skim() {
    while (!heap_.empty() && heap_.top().version != version_[heap_.top().id]) heap_.pop();
  }

  void dispatch_top(SimTime& fired) {
    const Entry entry = heap_.top();
    heap_.pop();
    version_[entry.id] = 0;
    fired = entry.time;
    entry.target->on_timer(Event{entry.time, entry.kind, entry.payload});
  }

  std::priority_queue<Entry> heap_;
  /// By schedule index: the version of its one live entry (a rekey pushes
  /// a new version), or 0 once fired or cancelled.
  std::vector<std::uint32_t> version_;
  std::vector<TimerTarget*> targets_;  ///< by schedule index
  std::uint64_t next_seq_ = 0;
};

}  // namespace gtrix
