#include "clock/hardware_clock.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace gtrix {

HardwareClock::HardwareClock(double rate, LocalTime offset) : origin_{0.0, offset, rate} {
  GTRIX_CHECK_MSG(rate > 0.0, "clock rate must be positive");
}

HardwareClock::HardwareClock(std::vector<std::pair<SimTime, double>> breakpoints,
                             LocalTime offset) {
  GTRIX_CHECK_MSG(!breakpoints.empty(), "empty rate schedule");
  GTRIX_CHECK_MSG(breakpoints.front().first == 0.0, "schedule must start at t=0");
  if (breakpoints.size() > 1) schedule_.reserve(breakpoints.size());
  LocalTime h = offset;
  for (std::size_t i = 0; i < breakpoints.size(); ++i) {
    const auto [t0, rate] = breakpoints[i];
    GTRIX_CHECK_MSG(rate > 0.0, "clock rate must be positive");
    if (i > 0) {
      GTRIX_CHECK_MSG(t0 > breakpoints[i - 1].first, "breakpoints must increase");
      h += breakpoints[i - 1].second * (t0 - breakpoints[i - 1].first);
    }
    const Segment seg{t0, h, rate};
    if (i == 0) origin_ = seg;
    if (breakpoints.size() > 1) schedule_.push_back(seg);
  }
}

LocalTime HardwareClock::to_local_schedule(SimTime t) const {
  // Find the last segment with t0 <= t.
  auto it = std::upper_bound(schedule_.begin(), schedule_.end(), t,
                             [](SimTime v, const Segment& s) { return v < s.t0; });
  const Segment& seg = *std::prev(it);
  return seg.h0 + seg.rate * (t - seg.t0);
}

SimTime HardwareClock::to_real_schedule(LocalTime h) const {
  // Find the last segment with h0 <= h. h0 is increasing because rates are
  // positive and breakpoints increase.
  auto it = std::upper_bound(schedule_.begin(), schedule_.end(), h,
                             [](LocalTime v, const Segment& s) { return v < s.h0; });
  const Segment& seg = *std::prev(it);
  return seg.t0 + (h - seg.h0) / seg.rate;
}

double HardwareClock::rate_at(SimTime t) const {
  const std::span<const Segment> segs = segments();
  auto it = std::upper_bound(segs.begin(), segs.end(), t,
                             [](SimTime v, const Segment& s) { return v < s.t0; });
  return std::prev(it)->rate;
}

double HardwareClock::min_rate() const {
  double r = origin_.rate;
  for (const auto& s : segments()) r = std::min(r, s.rate);
  return r;
}

double HardwareClock::max_rate() const {
  double r = origin_.rate;
  for (const auto& s : segments()) r = std::max(r, s.rate);
  return r;
}

}  // namespace gtrix
