// Skew measures (paper §2, "Output and Skew").
//
// All comparisons are between same-sigma pulses (intra-layer) or sigma+1 at
// layer l versus sigma at layer l+1 (inter-layer), which is exactly the
// paper's L_l and L_{l,l+1} after the index shift discussed in DESIGN.md.
// This header holds the report types and the trace view; the one evaluator
// that fills a SkewReport, live or by replaying a kept trace, is
// StreamingSkew (metrics/streaming.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "graph/grid.hpp"
#include "metrics/recorder.hpp"

namespace gtrix {

/// Joins the grid structure with the recorded trace. Grid node g is
/// recorder node g: every wiring registers grid nodes under their grid ids.
struct GridTrace {
  const Grid* grid = nullptr;
  const Recorder* recorder = nullptr;

  /// Per-node steady-state filter: a node's first `node_warmup` pulses and
  /// last `node_tail` pulses are excluded from measurements. Startup
  /// transients span different waves at different grid positions (notably
  /// under Appendix-A line input), so the filter is per node, not global.
  Sigma node_warmup = 3;
  Sigma node_tail = 1;

  bool is_faulty(GridNodeId g) const { return recorder->meta(g).faulty; }

  /// Pulse time of grid node g at wave s, but only within the node's steady
  /// window; nullopt otherwise.
  std::optional<SimTime> steady_pulse(GridNodeId g, Sigma s) const;
};

/// Distribution summary of the per-pair deviations |t_a - t_b| behind the
/// extrema above. The count is exact; the quantiles come from a log-binned
/// sketch in O(1) memory (1% relative error bound -- docs/scaling.md); the
/// mean is an exact sum over the count, rounded once.
struct DeviationStats {
  std::uint64_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

struct SkewReport {
  std::vector<double> intra_by_layer;  ///< max_sigma L_l(sigma) per layer
  std::vector<double> inter_by_layer;  ///< max_sigma L_{l,l+1}(sigma)
  std::vector<double> spread_by_layer; ///< max-min pulse time within layer (global skew)
  double max_intra = 0.0;              ///< sup_l L_l
  double max_inter = 0.0;              ///< sup_l L_{l,l+1}
  double local_skew = 0.0;             ///< L = max(max_intra, max_inter)
  double global_skew = 0.0;            ///< max layer spread
  Sigma sigma_lo = 0;
  Sigma sigma_hi = 0;
  std::uint64_t pairs_checked = 0;
  /// Pairs of the window with a missing pulse or a faulty endpoint, counted
  /// by a replay of a kept trace; 0 from the live accumulator.
  std::uint64_t pairs_skipped = 0;
  DeviationStats deviations;           ///< distribution of the checked pair deviations
};

/// Default measurement window for a run: every wave the recorder saw. The
/// per-node steady filter (GridTrace) handles the transients; the window
/// just bounds the sigma sweep. Empty (lo > hi) when nothing was recorded.
std::pair<Sigma, Sigma> default_window(const Recorder& recorder);

}  // namespace gtrix
