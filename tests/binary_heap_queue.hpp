// Binary-heap event queue: the differential oracle for the calendar queue.
//
// Deliberately independent of sim/event_queue.cpp -- a std::priority_queue
// over (time, seq) with lazy cancellation keyed by schedule index, no slot
// recycling, no buckets -- so tests/test_calendar_queue.cpp checks the
// calendar's bucket geometry, scan cursor, unlinks and rebuilds against the
// plain definition of the order they must realize: ascending time, ties in
// scheduling order. Exposes the subset of the EventQueue interface the
// differential drivers use.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/event_queue.hpp"

namespace gtrix {

class BinaryHeapQueue {
 public:
  TimerHandle schedule(SimTime t, TimerTarget* target, std::uint32_t kind,
                       EventPayload payload = {}) {
    const auto seq = static_cast<std::uint32_t>(live_.size());
    live_.push_back(true);
    heap_.push(Entry{t, seq, target, kind, payload});
    return TimerHandle{seq, 0};
  }

  /// True iff the event was still pending; fired or cancelled events are a
  /// no-op, like stale handles on the calendar queue.
  bool cancel(TimerHandle handle) {
    if (handle.slot >= live_.size() || !live_[handle.slot]) return false;
    live_[handle.slot] = false;
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
    std::uint32_t seq;  ///< schedule index; breaks same-time ties FIFO
    TimerTarget* target;
    std::uint32_t kind;
    EventPayload payload;
    // priority_queue is a max-heap; invert to pop the (time, seq) minimum.
    bool operator<(const Entry& other) const noexcept {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  /// Drops cancelled entries from the top of the heap.
  void skim() {
    while (!heap_.empty() && !live_[heap_.top().seq]) heap_.pop();
  }

  void dispatch_top(SimTime& fired) {
    const Entry entry = heap_.top();
    heap_.pop();
    live_[entry.seq] = false;
    fired = entry.time;
    entry.target->on_timer(Event{entry.time, entry.kind, entry.payload});
  }

  std::priority_queue<Entry> heap_;
  std::vector<bool> live_;  ///< by schedule index: false once fired or cancelled
};

}  // namespace gtrix
