#include "metrics/skew.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/check.hpp"

namespace gtrix {

namespace {

/// Memoizes each node's steady window [from, to]: steady_from() and
/// last_recorded() scan the node's whole pulse log, so computing them once
/// per node (instead of once per (node, sigma) query) drops compute_skew
/// from O(pairs x waves x pulses) to O(pairs x waves).
class SteadyWindows {
 public:
  explicit SteadyWindows(const GridTrace& trace) : trace_(trace) {
    const std::uint32_t n = trace.grid->node_count();
    from_.resize(n);
    to_.resize(n);
    for (GridNodeId g = 0; g < n; ++g) {
      from_[g] = trace.recorder->steady_from(g, trace.node_warmup);
      const Sigma last = trace.recorder->last_recorded(g);
      to_[g] = last == Recorder::kInvalidSigma ? Recorder::kInvalidSigma
                                               : last - trace.node_tail;
    }
  }

  /// Same value as GridTrace::steady_pulse, from the cached window.
  std::optional<SimTime> pulse(GridNodeId g, Sigma s) const {
    if (from_[g] == Recorder::kInvalidSigma || s < from_[g]) return std::nullopt;
    if (to_[g] == Recorder::kInvalidSigma || s > to_[g]) return std::nullopt;
    return trace_.recorder->pulse_time(g, s);
  }

 private:
  const GridTrace& trace_;
  std::vector<Sigma> from_;
  std::vector<Sigma> to_;
};

}  // namespace

std::optional<SimTime> GridTrace::steady_pulse(GridNodeId g, Sigma s) const {
  const Sigma from = recorder->steady_from(g, node_warmup);
  if (from == Recorder::kInvalidSigma || s < from) return std::nullopt;
  const Sigma last = recorder->last_recorded(g);
  if (last == Recorder::kInvalidSigma || s > last - node_tail) return std::nullopt;
  return recorder->pulse_time(g, s);
}

SkewReport compute_skew(const GridTrace& trace, Sigma lo, Sigma hi) {
  GTRIX_CHECK(trace.grid != nullptr && trace.recorder != nullptr);
  const Grid& grid = *trace.grid;
  const BaseGraph& base = grid.base();
  const auto edges = base.edges();

  const SteadyWindows windows(trace);

  SkewReport report;
  report.sigma_lo = lo;
  report.sigma_hi = hi;
  report.intra_by_layer.assign(grid.layers(), 0.0);
  report.inter_by_layer.assign(grid.layers() > 0 ? grid.layers() - 1 : 0, 0.0);
  report.spread_by_layer.assign(grid.layers(), 0.0);
  // Every checked pair deviation, for the exact quantile summary (streaming
  // mode estimates the same distribution in O(1) memory instead).
  std::vector<double> deviations;

  for (std::uint32_t layer = 0; layer < grid.layers(); ++layer) {
    double intra = 0.0;
    double spread = 0.0;
    for (Sigma s = lo; s <= hi; ++s) {
      // Intra-layer: adjacent pairs, same sigma.
      for (const auto& [a, b] : edges) {
        const GridNodeId ga = grid.id(a, layer);
        const GridNodeId gb = grid.id(b, layer);
        if (trace.is_faulty(ga) || trace.is_faulty(gb)) {
          ++report.pairs_skipped;
          continue;
        }
        const auto ta = windows.pulse(ga, s);
        const auto tb = windows.pulse(gb, s);
        if (!ta || !tb) {
          ++report.pairs_skipped;
          continue;
        }
        ++report.pairs_checked;
        const double dev = std::abs(*ta - *tb);
        intra = std::max(intra, dev);
        deviations.push_back(dev);
      }
      // Layer spread (global skew component).
      double tmin = std::numeric_limits<double>::infinity();
      double tmax = -std::numeric_limits<double>::infinity();
      for (BaseNodeId v = 0; v < base.node_count(); ++v) {
        const GridNodeId g = grid.id(v, layer);
        if (trace.is_faulty(g)) continue;
        const auto t = windows.pulse(g, s);
        if (!t) continue;
        tmin = std::min(tmin, *t);
        tmax = std::max(tmax, *t);
      }
      if (tmax >= tmin) spread = std::max(spread, tmax - tmin);
    }
    report.intra_by_layer[layer] = intra;
    report.spread_by_layer[layer] = spread;
    report.max_intra = std::max(report.max_intra, intra);
    report.global_skew = std::max(report.global_skew, spread);
  }

  // Inter-layer: |t^{sigma+1}_{v,l} - t^sigma_{w,l+1}| along grid edges.
  for (std::uint32_t layer = 0; layer + 1 < grid.layers(); ++layer) {
    double inter = 0.0;
    for (BaseNodeId v = 0; v < base.node_count(); ++v) {
      const GridNodeId gv = grid.id(v, layer);
      if (trace.is_faulty(gv)) continue;
      for (GridNodeId gw : grid.successors(gv)) {
        if (trace.is_faulty(gw)) continue;
        for (Sigma s = lo; s <= hi; ++s) {
          const auto tv = windows.pulse(gv, s + 1);
          const auto tw = windows.pulse(gw, s);
          if (!tv || !tw) {
            ++report.pairs_skipped;
            continue;
          }
          ++report.pairs_checked;
          const double dev = std::abs(*tv - *tw);
          inter = std::max(inter, dev);
          deviations.push_back(dev);
        }
      }
    }
    report.inter_by_layer[layer] = inter;
    report.max_inter = std::max(report.max_inter, inter);
  }

  report.local_skew = std::max(report.max_intra, report.max_inter);

  report.deviations.count = deviations.size();
  report.deviations.exact = true;
  if (!deviations.empty()) {
    // Exact type-7 quantiles via rank selection: three nth_element passes
    // instead of a full sort (the sample vector is O(pairs_checked), so a
    // sort's log factor is real time on big full-trace runs; streaming
    // mode avoids the materialization entirely -- docs/scaling.md).
    const auto exact_quantile = [&](double q) {
      const double pos = q * static_cast<double>(deviations.size() - 1);
      const auto lo = static_cast<std::size_t>(pos);
      const double frac = pos - static_cast<double>(lo);
      auto lo_it = deviations.begin() + static_cast<std::ptrdiff_t>(lo);
      std::nth_element(deviations.begin(), lo_it, deviations.end());
      const double lo_value = *lo_it;
      if (frac == 0.0 || lo + 1 >= deviations.size()) return lo_value;
      // The (lo+1)-th order statistic is the minimum of the partition
      // right of lo_it after nth_element.
      const double hi_value = *std::min_element(lo_it + 1, deviations.end());
      return lo_value * (1.0 - frac) + hi_value * frac;
    };
    double sum = 0.0;
    for (const double dev : deviations) sum += dev;
    report.deviations.mean = sum / static_cast<double>(deviations.size());
    report.deviations.p50 = exact_quantile(0.50);
    report.deviations.p90 = exact_quantile(0.90);
    report.deviations.p99 = exact_quantile(0.99);
  }
  return report;
}

std::vector<double> intra_skew_by_sigma(const GridTrace& trace, std::uint32_t layer,
                                        Sigma lo, Sigma hi) {
  const Grid& grid = *trace.grid;
  const SteadyWindows windows(trace);
  const auto edges = grid.base().edges();
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(hi - lo + 1));
  for (Sigma s = lo; s <= hi; ++s) {
    double worst = std::numeric_limits<double>::quiet_NaN();
    for (const auto& [a, b] : edges) {
      const GridNodeId ga = grid.id(a, layer);
      const GridNodeId gb = grid.id(b, layer);
      if (trace.is_faulty(ga) || trace.is_faulty(gb)) continue;
      const auto ta = windows.pulse(ga, s);
      const auto tb = windows.pulse(gb, s);
      if (!ta || !tb) continue;
      const double skew = std::abs(*ta - *tb);
      if (std::isnan(worst) || skew > worst) worst = skew;
    }
    out.push_back(worst);
  }
  return out;
}

std::vector<double> local_skew_by_sigma(const GridTrace& trace, Sigma lo, Sigma hi) {
  const Grid& grid = *trace.grid;
  const SteadyWindows windows(trace);
  const auto edges = grid.base().edges();
  std::vector<double> out(static_cast<std::size_t>(hi >= lo ? hi - lo + 1 : 0),
                          std::numeric_limits<double>::quiet_NaN());
  const auto fold = [&](Sigma s, double dev) {
    double& worst = out[static_cast<std::size_t>(s - lo)];
    if (std::isnan(worst) || dev > worst) worst = dev;
  };
  for (Sigma s = lo; s <= hi; ++s) {
    // Intra-layer pairs at wave s, every layer.
    for (std::uint32_t layer = 0; layer < grid.layers(); ++layer) {
      for (const auto& [a, b] : edges) {
        const GridNodeId ga = grid.id(a, layer);
        const GridNodeId gb = grid.id(b, layer);
        if (trace.is_faulty(ga) || trace.is_faulty(gb)) continue;
        const auto ta = windows.pulse(ga, s);
        const auto tb = windows.pulse(gb, s);
        if (!ta || !tb) continue;
        fold(s, std::abs(*ta - *tb));
      }
    }
    // Inter-layer pairs |t^{s+1}_{v,l} - t^s_{w,l+1}|, attributed to wave s.
    for (std::uint32_t layer = 0; layer + 1 < grid.layers(); ++layer) {
      for (BaseNodeId v = 0; v < grid.base().node_count(); ++v) {
        const GridNodeId gv = grid.id(v, layer);
        if (trace.is_faulty(gv)) continue;
        const auto tv = windows.pulse(gv, s + 1);
        if (!tv) continue;
        for (GridNodeId gw : grid.successors(gv)) {
          if (trace.is_faulty(gw)) continue;
          const auto tw = windows.pulse(gw, s);
          if (!tw) continue;
          fold(s, std::abs(*tv - *tw));
        }
      }
    }
  }
  return out;
}

std::pair<Sigma, Sigma> default_window(const Recorder& recorder, Sigma warmup) {
  (void)warmup;  // per-node steady filtering handles transients; the global
                 // window just bounds the sigma sweep.
  if (recorder.min_sigma() == Recorder::kInvalidSigma) return {0, -1};
  return {recorder.min_sigma(), recorder.max_sigma()};
}

}  // namespace gtrix
