#include "sim/simulator.hpp"

#include "support/check.hpp"

namespace gtrix {

TimerHandle Simulator::at(SimTime t, TimerTarget* target, std::uint32_t kind,
                          EventPayload payload) {
  GTRIX_CHECK_MSG(t >= now_, "scheduling into the past");
  return queue_.schedule(t, target, kind, payload);
}

EventKey Simulator::reserve(SimTime t) {
  GTRIX_CHECK_MSG(t >= now_, "scheduling into the past");
  return EventKey{t, queue_.take_seq()};
}

TimerHandle Simulator::after(SimTime delay, TimerTarget* target, std::uint32_t kind,
                             EventPayload payload) {
  GTRIX_CHECK_MSG(delay >= 0.0, "negative delay");
  return queue_.schedule(now_ + delay, target, kind, payload);
}

std::uint64_t Simulator::run_until(SimTime deadline) {
  std::uint64_t executed = 0;
  // run_next_due writes now_ before dispatching, so handlers observe the
  // event's time as now() -- and the loop locates each minimum only once.
  while (queue_.run_next_due(deadline, now_)) {
    ++executed;
  }
  // Advance the cursor so subsequent scheduling is relative to a finite deadline.
  if (deadline > now_ && deadline < kTimeInfinity) now_ = deadline;
  return executed;
}

std::uint64_t Simulator::run_before(SimTime horizon) {
  std::uint64_t executed = 0;
  while (queue_.run_next_strictly_before(horizon, now_)) {
    ++executed;
  }
  // The whole window [old now, horizon) is settled; scheduling below the
  // horizon from outside an event handler would now be scheduling into the
  // past of a window already executed.
  if (horizon > now_) now_ = horizon;
  return executed;
}

std::uint64_t Simulator::run_all(std::uint64_t max_events) {
  std::uint64_t executed = 0;
  while (!queue_.empty()) {
    GTRIX_CHECK_MSG(executed < max_events, "event budget exhausted");
    queue_.run_next_due(kTimeInfinity, now_);
    ++executed;
  }
  return executed;
}

}  // namespace gtrix
