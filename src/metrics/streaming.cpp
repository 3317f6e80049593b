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

void StreamingSkew::score(double& layer_max, Sigma wave, double deviation) {
  if (wave >= lo_ && wave <= hi_) {
    layer_max = std::max(layer_max, deviation);
    ++pairs_checked_;
    deviation_sum_.add(deviation);
    deviation_sketch_.add(deviation);
  }
  if (wave >= lane_lo_ && wave - lane_lo_ < static_cast<Sigma>(lane_.size())) {
    double& worst = lane_[static_cast<std::size_t>(wave - lane_lo_)];
    if (std::isnan(worst) || deviation > worst) worst = deviation;
  }
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
  // commits equals the max over complete waves.
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
  if (spread_ok && sigma >= lo_ && sigma <= hi_) {
    spread_by_layer_[layer] = std::max(spread_by_layer_[layer], we.max - we.min);
  }

  // Intra-layer pairs: one score per base edge per wave, triggered by the
  // later endpoint's commit (the earlier one is found in the ring).
  for (const BaseNodeId w : grid_.base().neighbors(v)) {
    const RecNodeId gn = layer * bn + w;
    if (faulty_[gn]) continue;
    const double tn = lookup(gn, sigma);
    if (std::isnan(tn)) continue;
    score(intra_by_layer_[layer], sigma, std::abs(t - tn));
  }

  // Inter-layer pairs |t^{sigma+1}_{v,l} - t^sigma_{w,l+1}|, attributed to
  // the lower wave and again scored by whichever endpoint commits later: as
  // the lower node (pair my wave s with successors' s-1) and as the upper
  // node (pair predecessors' s+1 with my s).
  if (layer + 1 < grid_.layers()) {
    for (const GridNodeId gw : grid_.successors(g)) {
      if (faulty_[gw]) continue;
      const double tw = lookup(gw, sigma - 1);
      if (std::isnan(tw)) continue;
      score(inter_by_layer_[layer], sigma - 1, std::abs(t - tw));
    }
  }
  if (layer >= 1) {
    for (const GridNodeId gv : grid_.predecessors(g)) {
      if (faulty_[gv]) continue;
      const double tv = lookup(gv, sigma + 1);
      if (std::isnan(tv)) continue;
      score(inter_by_layer_[layer - 1], sigma, std::abs(tv - t));
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
  r.deviations.count = pairs_checked_;
  if (pairs_checked_ != 0) {
    r.deviations.mean = deviation_sum_.value() / static_cast<double>(pairs_checked_);
    r.deviations.p50 = deviation_sketch_.quantile(0.50);
    r.deviations.p90 = deviation_sketch_.quantile(0.90);
    r.deviations.p99 = deviation_sketch_.quantile(0.99);
  }
  return r;
}

SkewReplay replay_skew(const GridTrace& trace, Sigma lo, Sigma hi, Sigma lane_lo,
                       Sigma lane_hi) {
  GTRIX_CHECK(trace.grid != nullptr && trace.recorder != nullptr);
  const Grid& grid = *trace.grid;
  const Recorder& recorder = *trace.recorder;
  const std::uint32_t n = grid.node_count();
  std::vector<bool> faulty(n);
  for (GridNodeId g = 0; g < n; ++g) faulty[g] = trace.is_faulty(g);

  StreamingSkew acc(grid, faulty, 0);
  acc.lo_ = lo;
  acc.hi_ = hi;
  Sigma first = lo;
  Sigma last = hi;
  if (lane_hi >= lane_lo) {
    acc.lane_lo_ = lane_lo;
    acc.lane_.assign(static_cast<std::size_t>(lane_hi - lane_lo + 1), kNaN);
    first = std::min(lo, lane_lo);
    last = std::max(hi, lane_hi);
  }

  // Each correct node's steady window (GridTrace::steady_pulse), computed
  // once per node and clipped to the committed waves: the pairs of wave
  // `last` need the inter-layer partners of wave last + 1.
  std::vector<Sigma> from(n, 0);
  std::vector<Sigma> to(n, -1);
  for (GridNodeId g = 0; g < n; ++g) {
    if (faulty[g]) continue;
    const Sigma steady = recorder.steady_from(g, trace.node_warmup);
    const Sigma final_wave = recorder.last_recorded(g);
    if (steady == Recorder::kInvalidSigma || final_wave == Recorder::kInvalidSigma) continue;
    from[g] = std::max(first, steady);
    to[g] = std::min(last + 1, final_wave - trace.node_tail);
  }
  for (Sigma s = first; s <= last + 1; ++s) {
    for (GridNodeId g = 0; g < n; ++g) {
      if (s < from[g] || s > to[g]) continue;
      if (const auto t = recorder.pulse_time(g, s)) acc.commit(g, s, *t);
    }
  }

  SkewReplay out{acc.report(lo, hi), std::move(acc.lane_)};
  if (hi >= lo) {
    std::uint64_t inter_pairs = 0;
    for (GridNodeId g = 0; g < n; ++g) {
      if (faulty[g] || grid.layer_of(g) + 1 >= grid.layers()) continue;
      for (const GridNodeId w : grid.successors(g)) inter_pairs += faulty[w] ? 0 : 1;
    }
    const std::uint64_t per_wave =
        static_cast<std::uint64_t>(grid.layers()) * grid.base().edges().size() + inter_pairs;
    out.skew.pairs_skipped =
        static_cast<std::uint64_t>(hi - lo + 1) * per_wave - out.skew.pairs_checked;
  }
  return out;
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
