#include "metrics/skew.hpp"

namespace gtrix {

std::optional<SimTime> GridTrace::steady_pulse(GridNodeId g, Sigma s) const {
  const Sigma from = recorder->steady_from(g, node_warmup);
  if (from == Recorder::kInvalidSigma || s < from) return std::nullopt;
  const Sigma last = recorder->last_recorded(g);
  if (last == Recorder::kInvalidSigma || s > last - node_tail) return std::nullopt;
  return recorder->pulse_time(g, s);
}

std::pair<Sigma, Sigma> default_window(const Recorder& recorder) {
  if (recorder.min_sigma() == Recorder::kInvalidSigma) return {0, -1};
  return {recorder.min_sigma(), recorder.max_sigma()};
}

}  // namespace gtrix
