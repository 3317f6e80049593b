// The analysis potentials of Definition 4.1, a test oracle:
//
//   psi^s_{v,w}(l) = t_{v,l} - t_{w,l} - 4 s kappa d(v,w),   Psi^s(l) = max_{v,w} psi
//   xi^s_{v,w}(l)  = t_{v,l} - t_{w,l} - (4s-2) kappa d(v,w), Xi^s(l) = max_{v,w} xi
//
// Observation 4.2 converts Psi^s bounds into local skew bounds:
// Psi^s(l) <= P  implies  L_l <= P + 4 s kappa.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/params.hpp"
#include "hop_distance.hpp"
#include "metrics/skew.hpp"

namespace gtrix {

namespace potentials_detail {

/// Shared max over ordered pairs of t_v - t_w - weight * d(v, w).
inline double pair_potential(const GridTrace& trace, std::uint32_t layer, Sigma sigma,
                             double weight) {
  const Grid& grid = *trace.grid;
  const BaseGraph& base = grid.base();

  // Gather pulse times once.
  std::vector<double> t(base.node_count(), std::numeric_limits<double>::quiet_NaN());
  std::size_t have = 0;
  for (BaseNodeId v = 0; v < base.node_count(); ++v) {
    const GridNodeId g = grid.id(v, layer);
    if (trace.is_faulty(g)) continue;
    const auto tv = trace.steady_pulse(g, sigma);
    if (tv) {
      t[v] = *tv;
      ++have;
    }
  }
  if (have < 2) return std::numeric_limits<double>::quiet_NaN();

  const auto dist = hop_distances(base);
  double best = -std::numeric_limits<double>::infinity();
  for (BaseNodeId v = 0; v < base.node_count(); ++v) {
    if (std::isnan(t[v])) continue;
    for (BaseNodeId w = 0; w < base.node_count(); ++w) {
      if (v == w || std::isnan(t[w])) continue;
      const double value = t[v] - t[w] - weight * dist[v][w];
      best = std::max(best, value);
    }
  }
  return best;
}

}  // namespace potentials_detail

/// Psi^s(l) for wave sigma; NaN if fewer than two correct pulses exist.
inline double psi_s(const GridTrace& trace, const Params& params, std::uint32_t layer,
                    Sigma sigma, std::uint32_t s) {
  return potentials_detail::pair_potential(trace, layer, sigma, 4.0 * s * params.kappa());
}

/// Xi^s(l) for wave sigma.
inline double xi_s(const GridTrace& trace, const Params& params, std::uint32_t layer,
                   Sigma sigma, std::uint32_t s) {
  return potentials_detail::pair_potential(trace, layer, sigma,
                                           (4.0 * s - 2.0) * params.kappa());
}

/// Max over sigma in [lo, hi] of Psi^s per layer.
inline std::vector<double> psi_profile(const GridTrace& trace, const Params& params,
                                       std::uint32_t s, Sigma lo, Sigma hi) {
  std::vector<double> out(trace.grid->layers(), std::numeric_limits<double>::quiet_NaN());
  for (std::uint32_t layer = 0; layer < trace.grid->layers(); ++layer) {
    double worst = std::numeric_limits<double>::quiet_NaN();
    for (Sigma sigma = lo; sigma <= hi; ++sigma) {
      const double p = psi_s(trace, params, layer, sigma, s);
      if (std::isnan(p)) continue;
      if (std::isnan(worst) || p > worst) worst = p;
    }
    out[layer] = worst;
  }
  return out;
}

}  // namespace gtrix
