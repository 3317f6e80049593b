#include "metrics/streaming.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "support/check.hpp"

namespace gtrix {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

}  // namespace

StreamingSkew::StreamingSkew(const Grid& grid, std::vector<bool> faulty, Sigma warmup)
    : grid_(grid), faulty_(std::move(faulty)), warmup_(warmup), deviation_sketch_(0.01) {
  GTRIX_CHECK_MSG(faulty_.size() == grid_.node_count(),
                  "fault map size must match the grid");

  const std::size_t n = grid_.node_count();
  held_sigma_.assign(n, kNoSigma);
  held_time_.assign(n, 0.0);
  recorded_.assign(n, 0);
  held_steady_.assign(n, false);
  ring_sigma_.assign(n * kRingWaves, kNoSigma);
  ring_time_.assign(n * kRingWaves, 0.0);

  const std::uint32_t layers = grid_.layers();
  intra_by_layer_.assign(layers, 0.0);
  inter_by_layer_.assign(layers > 0 ? layers - 1 : 0, 0.0);
  spread_by_layer_.assign(layers, 0.0);
  layer_ring_.assign(static_cast<std::size_t>(layers) * kRingWaves, WaveExtrema{});
}

void StreamingSkew::on_pulse(RecNodeId node, Sigma sigma, SimTime t) {
  if (node >= grid_.node_count()) return;  // line-mode clock source
  if (faulty_[node]) return;               // faulty endpoints never form pairs
  if (anchor_set_ && t >= anchor_time_) {
    // Corrupt cell: everything from the injection instant on is suspect;
    // the accumulators stay the clean pre-corruption epoch.
    return;
  }
  const std::int64_t arrival = ++recorded_[node];
  if (held_sigma_[node] != kNoSigma) {
    if (sigma < held_sigma_[node]) {
      ++out_of_order_;
      return;
    }
    if (sigma == held_sigma_[node]) {
      // Re-recorded wave: the later value wins, mirroring the full log's
      // in-place overwrite. Counted so tests can assert it never happens in
      // the scenarios whose results must be bit-identical.
      ++out_of_order_;
      held_time_[node] = t;
      return;
    }
    // A strictly later wave arrived: the held pulse is no longer the node's
    // last recorded one, so it passes the node_tail=1 filter and commits.
    if (held_steady_[node]) commit(node, held_sigma_[node], held_time_[node]);
  }
  held_sigma_[node] = sigma;
  held_time_[node] = t;
  held_steady_[node] = arrival > warmup_;
}

double StreamingSkew::lookup(RecNodeId g, Sigma sigma) {
  const std::size_t slot = static_cast<std::size_t>(g) * kRingWaves +
                           (static_cast<std::size_t>(sigma) & kRingMask);
  const Sigma have = ring_sigma_[slot];
  if (have == sigma) return ring_time_[slot];
  if (have != kNoSigma && have > sigma) {
    // The partner committed this wave but its slot was already reused: the
    // ring is too small for this scenario's wave stagger. A miss with an
    // OLDER (or no) resident sigma is the normal earlier-endpoint case --
    // the partner just has not committed yet and will score the pair when
    // it does -- so only the overwritten case is an anomaly worth counting.
    ++window_overflows_;
  }
  return kNaN;
}

void StreamingSkew::score(double deviation) {
  deviation_summary_.add(deviation);
  deviation_sketch_.add(deviation);
}

void StreamingSkew::commit(RecNodeId g, Sigma sigma, SimTime t) {
  const std::size_t wave_slot = static_cast<std::size_t>(sigma) & kRingMask;
  ring_sigma_[static_cast<std::size_t>(g) * kRingWaves + wave_slot] = sigma;
  ring_time_[static_cast<std::size_t>(g) * kRingWaves + wave_slot] = t;

  const std::uint32_t bn = grid_.base().node_count();
  const std::uint32_t layer = g / bn;
  const BaseNodeId v = g % bn;

  // Layer spread (global skew): running min/max per (layer, wave). Partial
  // spreads are always <= the wave's final spread, so the running max over
  // commits equals the post-hoc max over complete waves.
  WaveExtrema& we = layer_ring_[static_cast<std::size_t>(layer) * kRingWaves + wave_slot];
  bool spread_ok = true;
  if (we.sigma == sigma) {
    we.min = std::min(we.min, t);
    we.max = std::max(we.max, t);
  } else if (we.sigma == kNoSigma || we.sigma < sigma) {
    we.sigma = sigma;
    we.min = t;
    we.max = t;
  } else {
    ++window_overflows_;  // straggler for a wave whose slot moved on
    spread_ok = false;
  }
  if (spread_ok) {
    spread_by_layer_[layer] = std::max(spread_by_layer_[layer], we.max - we.min);
  }

  // Intra-layer pairs: one score per base edge per wave, triggered by the
  // later endpoint's commit (the earlier one is found in the ring).
  for (const BaseNodeId w : grid_.base().neighbors(v)) {
    const RecNodeId gn = layer * bn + w;
    if (faulty_[gn]) continue;
    const double tn = lookup(gn, sigma);
    if (std::isnan(tn)) continue;
    const double dev = std::abs(t - tn);
    intra_by_layer_[layer] = std::max(intra_by_layer_[layer], dev);
    ++pairs_checked_;
    score(dev);
  }

  // Inter-layer pairs |t^{sigma+1}_{v,l} - t^sigma_{w,l+1}|, again scored by
  // whichever endpoint commits later: as the lower node (pair my wave s with
  // successors' s-1) and as the upper node (pair predecessors' s+1 with my s).
  if (layer + 1 < grid_.layers()) {
    for (const GridNodeId gw : grid_.successors(g)) {
      if (faulty_[gw]) continue;
      const double tw = lookup(gw, sigma - 1);
      if (std::isnan(tw)) continue;
      const double dev = std::abs(t - tw);
      inter_by_layer_[layer] = std::max(inter_by_layer_[layer], dev);
      ++pairs_checked_;
      score(dev);
    }
  }
  if (layer >= 1) {
    for (const GridNodeId gv : grid_.predecessors(g)) {
      if (faulty_[gv]) continue;
      const double tv = lookup(gv, sigma + 1);
      if (std::isnan(tv)) continue;
      const double dev = std::abs(tv - t);
      inter_by_layer_[layer - 1] = std::max(inter_by_layer_[layer - 1], dev);
      ++pairs_checked_;
      score(dev);
    }
  }
}

SkewReport StreamingSkew::report(Sigma lo, Sigma hi) const {
  if (window_overflows_ != 0) {
    throw std::runtime_error(
        "streaming skew: " + std::to_string(window_overflows_) +
        " wave-ring lookups found their wave already overwritten (the ring holds " +
        std::to_string(kRingWaves) + " waves per node), so extrema would under-report; "
        "record this scenario with full recording");
  }
  SkewReport r;
  r.sigma_lo = lo;
  r.sigma_hi = hi;
  r.intra_by_layer = intra_by_layer_;
  r.inter_by_layer = inter_by_layer_;
  r.spread_by_layer = spread_by_layer_;
  for (const double x : intra_by_layer_) r.max_intra = std::max(r.max_intra, x);
  for (const double x : inter_by_layer_) r.max_inter = std::max(r.max_inter, x);
  for (const double x : spread_by_layer_) r.global_skew = std::max(r.global_skew, x);
  r.local_skew = std::max(r.max_intra, r.max_inter);
  r.pairs_checked = pairs_checked_;
  // pairs_skipped stays 0. Full recording counts every pair with a faulty
  // or missing endpoint there, per wave of the window; the one data loss
  // streaming could count, a ring overflow, is the error above.
  r.deviations.count = deviation_summary_.count();
  if (!deviation_summary_.empty()) {
    r.deviations.mean = deviation_summary_.mean();
    r.deviations.p50 = deviation_sketch_.quantile(0.50);
    r.deviations.p90 = deviation_sketch_.quantile(0.90);
    r.deviations.p99 = deviation_sketch_.quantile(0.99);
  }
  r.deviations.exact = false;
  return r;
}

std::uint64_t StreamingSkew::memory_bytes() const noexcept {
  return deviation_sketch_.memory_bytes() +
         ring_sigma_.size() * sizeof(Sigma) + ring_time_.size() * sizeof(SimTime) +
         layer_ring_.size() * sizeof(WaveExtrema) + held_sigma_.size() * sizeof(Sigma) +
         held_time_.size() * sizeof(SimTime) + recorded_.size() * sizeof(std::int64_t) +
         (held_steady_.size() + faulty_.size()) / 8 +
         (intra_by_layer_.size() + inter_by_layer_.size() + spread_by_layer_.size()) *
             sizeof(double);
}

}  // namespace gtrix
