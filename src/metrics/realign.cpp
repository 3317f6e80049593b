#include "metrics/realign.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/check.hpp"
#include "support/stats.hpp"

namespace gtrix {

namespace {

/// Median of (t - sigma * lambda) over the node's last `tail` pulses;
/// NaN with fewer than 3 pulses. A wave the node never recorded is skipped.
double tail_intercept(const Recorder& rec, RecNodeId node, double lambda,
                      std::size_t tail) {
  const Sigma last = rec.last_recorded(node);
  if (last == Recorder::kInvalidSigma) return std::numeric_limits<double>::quiet_NaN();
  std::vector<double> intercepts;
  for (Sigma s = last; intercepts.size() < tail; --s) {
    const auto t = rec.pulse_time(node, s);
    if (t) intercepts.push_back(*t - static_cast<double>(s) * lambda);
    if (s == rec.steady_from(node, 0)) break;  // reached the first pulse
  }
  if (intercepts.size() < 3) return std::numeric_limits<double>::quiet_NaN();
  return median(intercepts);
}

}  // namespace

RealignStats realign_wave_labels(Recorder& recorder, const GridTrace& trace,
                                 double lambda, std::size_t tail_pulses) {
  GTRIX_CHECK(trace.grid != nullptr);
  const Grid& grid = *trace.grid;
  RealignStats stats;

  // Anchor: median intercept of layer-0 nodes (their labels are reliable:
  // emitters are not corruptible and line nodes re-sync from the source).
  std::vector<double> layer0;
  for (BaseNodeId v = 0; v < grid.base().node_count(); ++v) {
    const GridNodeId g = grid.id(v, 0);
    if (trace.is_faulty(g)) continue;
    const double i = tail_intercept(recorder, g, lambda, tail_pulses);
    if (!std::isnan(i)) layer0.push_back(i);
  }
  if (layer0.size() < 1) return stats;  // nothing to anchor against
  const double anchor = median(layer0);

  for (GridNodeId g = 0; g < grid.node_count(); ++g) {
    const std::uint32_t layer = grid.layer_of(g);
    if (layer == 0) continue;
    const double intercept = tail_intercept(recorder, g, lambda, tail_pulses);
    if (std::isnan(intercept)) continue;
    const double expected = anchor + static_cast<double>(layer) * lambda;
    const auto delta = static_cast<Sigma>(std::llround((intercept - expected) / lambda));
    if (delta != 0) {
      // Raising every label by delta lowers the intercept by delta * Lambda.
      recorder.shift_node_sigma(g, delta);
      ++stats.nodes_shifted;
      stats.max_abs_shift = std::max<std::int64_t>(stats.max_abs_shift, std::llabs(delta));
    }
  }
  return stats;
}

}  // namespace gtrix
