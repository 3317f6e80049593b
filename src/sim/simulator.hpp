// The simulation driver: wraps the typed event queue with a current-time
// cursor and run-until / run-all loops.
//
// Scheduling is typed end to end: callers pass a TimerTarget plus an event
// kind and POD payload (see sim/event_queue.hpp for the design rationale);
// at() / after() return cancellable TimerHandles. There is no closure path,
// so the steady-state scheduling loop performs no per-event heap allocation.
#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace gtrix {

/// Cache-line aligned: a World keeps its shards' Simulators side by side,
/// and each one's clock and queue counters are written by its own worker
/// thread on every event.
class alignas(64) Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const noexcept { return now_; }

  /// Schedules an event at absolute time `t`; `t` must not precede now().
  TimerHandle at(SimTime t, TimerTarget* target, std::uint32_t kind,
                 EventPayload payload = {});

  /// Schedules an event `delay >= 0` after now().
  TimerHandle after(SimTime delay, TimerTarget* target, std::uint32_t kind,
                    EventPayload payload = {});

  /// Cancels the referenced event (no-op on stale handles) and resets the
  /// handle so it cannot be cancelled twice by accident. A successful
  /// cancel counts as a timer cancellation (timer_cancels()).
  bool cancel(TimerHandle& handle) {
    const bool cancelled = queue_.cancel(handle);
    handle.reset();
    timer_cancels_ += cancelled ? 1 : 0;
    return cancelled;
  }

  bool pending(TimerHandle handle) const noexcept { return queue_.pending(handle); }

  /// Reserves the key at(t, ...) would give its event now, without
  /// scheduling one: an event scheduled at the key later (at_key) or moved
  /// onto it (rekey) fires exactly where at() would have put it. `t` must
  /// not precede now(), as for at().
  EventKey reserve(SimTime t);

  /// Schedules an event at a key reserve() returned.
  TimerHandle at_key(EventKey key, TimerTarget* target, std::uint32_t kind,
                     EventPayload payload = {}) {
    return queue_.schedule_at_key(key, target, kind, payload);
  }

  /// Moves a pending event to a reserved key (EventQueue::rekey).
  void rekey(TimerHandle handle, EventKey key, std::uint32_t kind, EventPayload payload = {}) {
    queue_.rekey(handle, key, kind, payload);
  }

  /// Cancels a pending event without counting a timer cancellation: the
  /// entry of a node whose timers were all disarmed, each disarm counted
  /// already (count_timer_cancel).
  void unschedule(TimerHandle& handle) {
    queue_.cancel(handle);
    handle.reset();
  }

  /// Counts a timer cancellation that node code resolved without the
  /// queue: a deadline it disarmed before its entry fired.
  void count_timer_cancel() noexcept { ++timer_cancels_; }

  /// Timer cancellations issued by node code: successful cancel() calls
  /// plus count_timer_cancel(). Engine-invariant: node code behaves
  /// identically under every shard layout (telemetry's JSONL block relies
  /// on this).
  std::uint64_t timer_cancels() const noexcept { return timer_cancels_; }

  /// Runs until the queue is empty or the next event is strictly after
  /// `deadline`. Events exactly at `deadline` are executed, and a finite
  /// deadline leaves now() == deadline. Returns the number of events
  /// executed.
  std::uint64_t run_until(SimTime deadline);

  /// Runs events strictly before `horizon` and leaves now() == horizon.
  /// The sharded engine's window primitive: a shard may execute everything
  /// below the window horizon because no cross-shard message sent in the
  /// window can arrive before it (see runner/shard_driver.hpp). Returns the
  /// number of events executed.
  std::uint64_t run_before(SimTime horizon);

  /// Runs until the queue is empty. An event budget guards against
  /// accidental infinite self-scheduling. Returns events executed.
  std::uint64_t run_all(std::uint64_t max_events = 2'000'000'000ULL);

  /// Moves the clock cursor forward to `t` without executing anything
  /// (no-op if now() >= t). The sharded driver aligns every shard's clock
  /// with the run_until deadline after the final window.
  void advance_to(SimTime t) noexcept {
    if (t > now_) now_ = t;
  }

  /// Time of the earliest pending event, or kTimeInfinity when idle. The
  /// sharded driver's barrier takes the minimum across shards to place the
  /// next window.
  SimTime next_event_time() const {
    return queue_.empty() ? kTimeInfinity : queue_.next_time();
  }

  std::uint64_t executed_events() const noexcept { return queue_.executed_count(); }
  bool idle() const noexcept { return queue_.empty(); }

  /// Read-only queue access for telemetry harvesting (scheduled / cancelled
  /// / rebuild / occupancy / pop-visit counters); see obs/telemetry.hpp.
  const EventQueue& event_queue() const noexcept { return queue_; }

  /// Checkpoint codec (src/ckpt/state_ckpt.cpp): the clock cursor, the
  /// timer-cancel count and the full queue.
  void checkpoint(CkptIo& io, const CkptTargetMap& targets);

 private:
  EventQueue queue_;
  SimTime now_ = 0.0;
  std::uint64_t timer_cancels_ = 0;
};

}  // namespace gtrix
