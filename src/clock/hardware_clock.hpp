// Hardware clocks H_v : real time -> local time with bounded drift.
//
// The model (paper §2, "Local Clocks and Computations") requires
//   t' - t <= H(t') - H(t) <= theta * (t' - t)   for all t < t',
// i.e. instantaneous rate within [1, theta]. The algorithm only measures
// durations and schedules "wait until H(t) = X" events, so clocks must be
// invertible: to_real(to_local(t)) == t.
//
// Two implementations:
//  * static rate (the paper's default assumption: speeds change negligibly),
//  * piecewise-linear rate schedule (used for the Corollary 1.5 experiments
//    on slowly varying clock speeds).
#pragma once

#include <span>
#include <vector>

#include "sim/time.hpp"
#include "support/check.hpp"

namespace gtrix {

class HardwareClock {
 public:
  /// Constant-rate clock: H(t) = offset + rate * t. rate must be >= some
  /// positive value; the paper requires rate in [1, theta].
  HardwareClock(double rate, LocalTime offset);

  /// Piecewise-linear clock. `breakpoints` holds (real time, rate) pairs
  /// sorted by time; the i-th rate applies from breakpoints[i] until
  /// breakpoints[i+1] (the last applies forever). The first breakpoint must
  /// be at real time 0. `offset` is H(0).
  HardwareClock(std::vector<std::pair<SimTime, double>> breakpoints, LocalTime offset);

  /// Local reading at real time t (t >= 0). The single-segment (static
  /// rate) case is inlined: these conversions run several times per event
  /// on the hot path. Identical arithmetic to the schedule walk.
  LocalTime to_local(SimTime t) const {
    GTRIX_CHECK_MSG(t >= 0.0, "negative real time");
    if (schedule_.empty()) [[likely]] {
      return origin_.h0 + origin_.rate * (t - origin_.t0);
    }
    return to_local_schedule(t);
  }

  /// Real time at which the local reading reaches h (h >= H(0)).
  SimTime to_real(LocalTime h) const {
    GTRIX_CHECK_MSG(h >= origin_.h0, "local time precedes clock origin");
    if (schedule_.empty()) [[likely]] {
      return origin_.t0 + (h - origin_.h0) / origin_.rate;
    }
    return to_real_schedule(h);
  }

  /// Instantaneous rate at real time t.
  double rate_at(SimTime t) const;

  /// Minimum / maximum instantaneous rate over the whole schedule.
  double min_rate() const;
  double max_rate() const;

 private:
  struct Segment {
    SimTime t0;      // segment start, real time
    LocalTime h0;    // H(t0)
    double rate;     // slope on [t0, next.t0)
  };

  LocalTime to_local_schedule(SimTime t) const;
  SimTime to_real_schedule(LocalTime h) const;
  std::span<const Segment> segments() const {
    return schedule_.empty() ? std::span<const Segment>(&origin_, 1) : schedule_;
  }

  // The first segment lives inline, so a static-rate clock -- one per grid
  // node on the default models -- owns no heap memory. A multi-segment
  // schedule keeps every segment (sorted by t0, schedule_[0] == origin_) in
  // schedule_, which is empty for a single segment.
  Segment origin_{};
  std::vector<Segment> schedule_;
};

}  // namespace gtrix
