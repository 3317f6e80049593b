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

StreamingSkew::StreamingSkew(const Grid& grid, std::vector<bool> faulty, Sigma warmup,
                             std::span<const std::uint32_t> base_shard)
    : grid_(grid), faulty_(std::move(faulty)), warmup_(warmup) {
  GTRIX_CHECK_MSG(faulty_.size() == grid_.node_count(),
                  "fault map size must match the grid");
  const std::size_t n = grid_.node_count();
  const std::uint32_t bn = grid_.base().node_count();
  GTRIX_CHECK_MSG(base_shard.empty() || base_shard.size() == bn, "one shard per base node");
  const auto shard_of = [&](BaseNodeId v) { return base_shard.empty() ? 0U : base_shard[v]; };
  held_sigma_.assign(n, kNoSigma);
  held_time_.assign(n, 0.0);
  recorded_.assign(n, 0);
  held_steady_.assign(n, 0);
  ring_sigma_.assign(n * kRingWaves, kNoSigma);
  ring_time_.assign(n * kRingWaves, 0.0);

  const std::uint32_t layers = grid_.layers();
  Shard blank;
  blank.intra_by_layer.assign(layers, 0.0);
  blank.inter_by_layer.assign(layers > 0 ? layers - 1 : 0, 0.0);
  blank.spread_by_layer.assign(layers, 0.0);
  blank.layer_ring.assign(static_cast<std::size_t>(layers) * kRingWaves, WaveExtrema{});
  const std::uint32_t shards = base_shard.empty() ? 1 : std::ranges::max(base_shard) + 1;
  shards_.assign(shards, blank);
  if (shards > 1) layer_fold_ = blank.layer_ring;  // a column cut splits every layer

  // A cut node has a pair partner on another shard. Its partners are copies
  // of its base node and base neighbours, and shards cut every layer alike,
  // so it is one when a base neighbour is on another shard.
  cut_.resize(n);
  for (BaseNodeId v = 0; v < bn; ++v) {
    std::uint8_t cut = 0;
    for (const BaseNodeId w : grid_.base().neighbors(v)) cut |= shard_of(w) != shard_of(v) ? 1 : 0;
    for (GridNodeId g = v; g < n; g += bn) cut_[g] = cut;
  }
}

void StreamingSkew::on_pulse(RecNodeId node, Sigma sigma, SimTime t, std::uint32_t shard_id) {
  if (node >= grid_.node_count()) return;  // line-mode clock source
  if (faulty_[node]) return;               // faulty endpoints never form pairs
  Shard& shard = shards_[shard_id];
  const std::int64_t arrival = ++recorded_[node];
  if (held_sigma_[node] != kNoSigma) {
    if (sigma < held_sigma_[node]) {
      ++shard.out_of_order;
      return;
    }
    if (sigma == held_sigma_[node]) {
      // Re-recorded wave: the later value wins, mirroring the full log's
      // in-place overwrite. Counted so tests can assert it never happens in
      // the scenarios whose results must be bit-identical.
      ++shard.out_of_order;
      held_time_[node] = t;
      return;
    }
    // A strictly later wave arrived: the held pulse is no longer the node's
    // last recorded one, so it passes the node_tail=1 filter and commits --
    // at the window barrier for a cut node, whose commit reads and writes
    // rings on both sides of the cut.
    if (held_steady_[node] != 0 && cut_[node] != 0) {
      shard.cut_pulses.push_back(CutPulse{node, held_sigma_[node], held_time_[node]});
    } else if (held_steady_[node] != 0) {
      commit(shard, node, held_sigma_[node], held_time_[node]);
    }
  }
  held_sigma_[node] = sigma;
  held_time_[node] = t;
  held_steady_[node] = arrival > warmup_ ? 1 : 0;
}

double StreamingSkew::lookup(Shard& shard, RecNodeId g, Sigma sigma) {
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
    ++shard.window_overflows;
  }
  return kNaN;
}

void StreamingSkew::score(Shard& shard, double& layer_max, Sigma wave, double deviation) {
  if (wave >= lo_ && wave <= hi_) {
    layer_max = std::max(layer_max, deviation);
    ++shard.pairs_checked;
    shard.deviation_sum.add(deviation);
    shard.deviation_sketch.add(deviation);
  }
  if (wave >= lane_lo_ && wave - lane_lo_ < static_cast<Sigma>(lane_.size())) {
    double& worst = lane_[static_cast<std::size_t>(wave - lane_lo_)];
    if (std::isnan(worst) || deviation > worst) worst = deviation;
  }
}

bool StreamingSkew::widen(Shard& shard, WaveExtrema& we, std::size_t slot, Sigma sigma,
                          double min, double max) {
  if (we.sigma > sigma) {
    ++shard.window_overflows;  // straggler for a wave whose slot moved on
    return false;
  }
  if (we.sigma < sigma) we = WaveExtrema{sigma, min, max, we.unfolded};
  we.min = std::min(we.min, min);
  we.max = std::max(we.max, max);
  if (sigma >= lo_ && sigma <= hi_) {
    double& spread = shard.spread_by_layer[slot / kRingWaves];
    spread = std::max(spread, we.max - we.min);
  }
  return true;
}

void StreamingSkew::commit(Shard& shard, RecNodeId g, Sigma sigma, SimTime t) {
  const std::size_t wave_slot = static_cast<std::size_t>(sigma) & kRingMask;
  ring_sigma_[static_cast<std::size_t>(g) * kRingWaves + wave_slot] = sigma;
  ring_time_[static_cast<std::size_t>(g) * kRingWaves + wave_slot] = t;

  const std::uint32_t bn = grid_.base().node_count();
  const std::uint32_t layer = g / bn;
  const BaseNodeId v = g % bn;

  // Layer spread (global skew): running min/max per (layer, wave). Partial
  // spreads are always <= the wave's final spread, so the running max over
  // commits equals the max over complete waves. A shard sees only its own
  // columns of a layer, and exchange() folds the slots it wrote.
  const std::size_t slot = static_cast<std::size_t>(layer) * kRingWaves + wave_slot;
  WaveExtrema& we = shard.layer_ring[slot];
  if (we.unfolded && we.sigma < sigma) ++shard.window_overflows;  // its wave missed the fold
  if (widen(shard, we, slot, sigma, t, t) && !layer_fold_.empty() && !we.unfolded) {
    we.unfolded = true;
    shard.unfolded.push_back(static_cast<std::uint32_t>(slot));
  }

  // The pair of g's wave `sigma` and partner p's wave `wave`, scored into
  // `layer_max` and attributed to wave `attributed` by the later endpoint.
  const auto pair = [&](GridNodeId p, Sigma wave, double& layer_max, Sigma attributed) {
    if (faulty_[p]) return;
    const double tp = lookup(shard, p, wave);
    if (!std::isnan(tp)) score(shard, layer_max, attributed, std::abs(t - tp));
  };
  // Intra-layer pairs: one score per base edge per wave.
  for (const BaseNodeId w : grid_.base().neighbors(v)) {
    pair(layer * bn + w, sigma, shard.intra_by_layer[layer], sigma);
  }
  // Inter-layer pairs |t^{sigma+1}_{v,l} - t^sigma_{w,l+1}|, attributed to
  // the lower wave: as the lower node (pair my wave s with successors' s-1)
  // and as the upper node (pair predecessors' s+1 with my s).
  for (const GridNodeId gw : grid_.successors(g)) {
    pair(gw, sigma - 1, shard.inter_by_layer[layer], sigma - 1);
  }
  for (const GridNodeId gv : grid_.predecessors(g)) {
    pair(gv, sigma + 1, shard.inter_by_layer[layer - 1], sigma);
  }
}

void StreamingSkew::exchange() {
  for (Shard& shard : shards_) {
    for (const CutPulse& pulse : shard.cut_pulses) commit(shard, pulse.node, pulse.sigma, pulse.t);
    shard.cut_pulses.clear();
    for (const std::uint32_t slot : shard.unfolded) {
      WaveExtrema& part = shard.layer_ring[slot];
      part.unfolded = false;
      widen(shard, layer_fold_[slot], slot, part.sigma, part.min, part.max);
    }
    shard.unfolded.clear();
  }
}

SkewReport StreamingSkew::report(Sigma lo, Sigma hi) const {
  if (window_overflows() != 0) {
    throw std::runtime_error(
        "streaming skew: " + std::to_string(window_overflows()) +
        " wave-ring lookups found their wave already overwritten (the ring holds " +
        std::to_string(kRingWaves) + " waves per node), so extrema would under-report; "
        "record this scenario with full recording");
  }
  // The shard tallies fold by max, by sum and by exact merges.
  Shard all = shards_.front();
  const auto fold_max = [](std::vector<double>& into, const std::vector<double>& from) {
    for (std::size_t i = 0; i < into.size(); ++i) into[i] = std::max(into[i], from[i]);
  };
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    fold_max(all.intra_by_layer, shards_[s].intra_by_layer);
    fold_max(all.inter_by_layer, shards_[s].inter_by_layer);
    fold_max(all.spread_by_layer, shards_[s].spread_by_layer);
    all.pairs_checked += shards_[s].pairs_checked;
    all.deviation_sum.merge(shards_[s].deviation_sum);
    all.deviation_sketch.merge(shards_[s].deviation_sketch);
  }
  SkewReport r;
  r.sigma_lo = lo;
  r.sigma_hi = hi;
  r.intra_by_layer = all.intra_by_layer;
  r.inter_by_layer = all.inter_by_layer;
  r.spread_by_layer = all.spread_by_layer;
  for (const double x : r.intra_by_layer) r.max_intra = std::max(r.max_intra, x);
  for (const double x : r.inter_by_layer) r.max_inter = std::max(r.max_inter, x);
  for (const double x : r.spread_by_layer) r.global_skew = std::max(r.global_skew, x);
  r.local_skew = std::max(r.max_intra, r.max_inter);
  r.pairs_checked = all.pairs_checked;
  r.deviations.count = all.pairs_checked;
  if (all.pairs_checked != 0) {
    r.deviations.mean = all.deviation_sum.value() / static_cast<double>(all.pairs_checked);
    r.deviations.p50 = all.deviation_sketch.quantile(0.50);
    r.deviations.p90 = all.deviation_sketch.quantile(0.90);
    r.deviations.p99 = all.deviation_sketch.quantile(0.99);
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
      if (const auto t = recorder.pulse_time(g, s)) acc.commit(acc.shards_[0], g, s, *t);
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
  const auto bytes = [](const auto&... v) -> std::uint64_t {
    return ((v.capacity() * sizeof(*v.data())) + ...);
  };
  std::uint64_t total = bytes(held_sigma_, held_time_, recorded_, held_steady_, cut_, ring_sigma_,
                              ring_time_, shards_, layer_fold_, lane_) +
                        faulty_.capacity() / 8;
  for (const Shard& s : shards_) {
    total += bytes(s.intra_by_layer, s.inter_by_layer, s.spread_by_layer, s.layer_ring,
                   s.unfolded, s.cut_pulses) +
             s.deviation_sketch.memory_bytes() - sizeof(LogQuantileSketch);
  }
  return total;
}

}  // namespace gtrix
