// The one skew evaluator (paper §2, "Output and Skew"): StreamingSkew
// scores every intra-layer pair L_l(sigma), every inter-layer pair
// L_{l,l+1}(sigma) and every layer spread, and assembles the SkewReport.
// It is fed two ways:
//
//  * live -- a clean streaming cell keeps no per-wave trace, so the
//    recorder feeds each pulse to on_pulse as it is recorded (O(nodes)
//    memory at any run length);
//  * replay -- a cell that keeps its pulse trace (full recording, and any
//    corrupt cell) is measured by replay_skew, which commits each correct
//    node's steady pulses wave by wave for the waves [lo, hi + 1] and
//    scores only pairs whose wave lies in [lo, hi]. The same pass fills the
//    per-wave worst-local-deviation lane of the Theorem 1.6 recovery scan.
//
// Both feeds score with the same commit code:
//
//  * Per-node steady filtering (GridTrace's node_warmup / node_tail). Live,
//    a node's first `warmup` recorded pulses are skipped and committing a
//    pulse is deferred by one further pulse of the same node, which
//    excludes exactly the node's last recorded wave (node_tail = 1); the
//    replay reads each node's steady window from the trace.
//  * A pair (intra edge at one wave, or inter-layer successor pair at
//    adjacent waves, attributed to the lower wave) is scored when the LATER
//    of its two endpoints commits and the earlier one is still present in
//    the wave ring -- each pair exactly once. Extrema and pairs_checked
//    therefore do not depend on the feed order, and live and replay agree
//    on them bit for bit (tests/test_streaming_metrics.cpp).
//  * Layer spread (global skew) uses a running per-(layer, wave) min/max;
//    the partial spreads observed along the way are always <= the final
//    one, so the running max converges to the wave's spread exactly.
//
// Memory is O(nodes x ring + layers x ring): each node keeps a ring of its
// most recent committed waves (a constant kRingWaves = 8) for the neighbour
// lookups. The ring only needs to cover how far two ADJACENT nodes' wave
// counters can drift apart, which is bounded by the local skew (<< one
// wave) -- not the run length and not the cross-grid spread. A
// line-propagation layer 0, whose columns start one link delay apart,
// overflowed it at none of 16 to 512 columns and 4 to 48 layers; the
// wave-major replay cannot overflow it. A lookup that misses because its
// wave was already overwritten is counted (window_overflows()), and
// report() turns any such miss into a hard error instead of an
// under-reported extremum.
//
// Deviation quantiles (p50/p90/p99 of all checked pair deviations) come
// from a log-binned sketch (1% relative error for any distribution shape)
// whose bins do not depend on the feed order either, and the mean is an
// exact sum (ExactSum, rounded once) over pairs_checked. So every field of
// the report, and every saved accumulator word, is a function of the
// multiset of scored pairs: live and replay agree bit for bit on all of
// them, and so do feeds that interleave the nodes differently, as long as
// each node's own pulses keep their order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/grid.hpp"
#include "metrics/skew.hpp"
#include "support/stats.hpp"

namespace gtrix {

/// What one replay measures: the skew over its report window, and the
/// per-wave lane of the recovery scan.
struct SkewReplay {
  SkewReport skew;
  /// local_by_wave[i] = worst deviation of any intra-layer pair at wave
  /// lane_lo + i or inter-layer pair attributed to it (s + 1 at layer l vs
  /// s at layer l + 1 is attributed to s); NaN where no pair was readable.
  std::vector<double> local_by_wave;
};

/// Replays the pulse trace `trace` keeps through a StreamingSkew: the skew
/// over waves [lo, hi], plus the per-wave lane for waves [lane_lo, lane_hi]
/// (empty when lane_hi < lane_lo) from the same pass. The report's
/// pairs_skipped counts every pair of the window that was not checked, a
/// missing pulse or a faulty endpoint: (hi - lo + 1) x (layers x |base
/// edges| + inter-layer pairs between correct nodes) - pairs_checked.
SkewReplay replay_skew(const GridTrace& trace, Sigma lo, Sigma hi, Sigma lane_lo = 0,
                       Sigma lane_hi = -1);

class StreamingSkew {
 public:
  /// Per-node wave-ring capacity (a power of two).
  static constexpr std::size_t kRingWaves = 8;

  /// `faulty[g]` marks grid node g as part of the fault set F; its pulses
  /// are ignored and pairs with a faulty endpoint never form. A node's
  /// first `warmup` live pulses are skipped. The grid must outlive the
  /// accumulator.
  StreamingSkew(const Grid& grid, std::vector<bool> faulty, Sigma warmup);

  /// Feed one recorded pulse (live). Ids beyond the grid (the line-mode
  /// clock source) are ignored. Pulses of one node must arrive in
  /// nondecreasing sigma order (they do: a node's pulses are recorded at
  /// their emission times); violations are counted, not scored.
  void on_pulse(RecNodeId node, Sigma sigma, SimTime t);

  /// Assembles the SkewReport. `lo`/`hi` label the report's measurement
  /// window; the accumulated values already cover exactly the steady pulses
  /// inside it. pairs_skipped is 0 here (replay_skew sets it). Throws a
  /// runtime_error naming the count when any ring lookup overflowed.
  SkewReport report(Sigma lo, Sigma hi) const;

  /// Lookups that missed because the partner's wave slot had already been
  /// overwritten -- nonzero means the ring is too small for this scenario's
  /// wave stagger, and report() refuses to answer.
  std::uint64_t window_overflows() const noexcept { return window_overflows_; }
  /// Pulses dropped for arriving with a non-increasing sigma.
  std::uint64_t out_of_order() const noexcept { return out_of_order_; }
  /// Approximate accumulator footprint, for bench_scale reporting.
  std::uint64_t memory_bytes() const noexcept;

  /// Checkpoint codec (src/ckpt/state_ckpt.cpp): every accumulator lane,
  /// ring slot, per-layer extremum, counter and the deviation sum and
  /// sketch. Grid and fault set are construction state and the lanes are
  /// only size-validated on restore. Only the live accumulator is ever
  /// saved, so the replay's windows are not part of it.
  void checkpoint(CkptIo& io);

 private:
  friend SkewReplay replay_skew(const GridTrace&, Sigma, Sigma, Sigma, Sigma);

  struct WaveExtrema {
    Sigma sigma = kNoSigma;
    double min = 0.0;
    double max = 0.0;
  };

  static constexpr Sigma kNoSigma = std::numeric_limits<Sigma>::min();

  void commit(RecNodeId g, Sigma sigma, SimTime t);
  /// Committed time of `g` at `sigma` if still in the ring; NaN otherwise
  /// (overwritten slots bump window_overflows_).
  double lookup(RecNodeId g, Sigma sigma);
  /// Scores one pair attributed to `wave` into `layer_max` and the
  /// deviation sum and sketch when the wave lies in the report window, and into
  /// the per-wave lane when it lies there.
  void score(double& layer_max, Sigma wave, double deviation);

  static constexpr std::size_t kRingMask = kRingWaves - 1;
  static_assert((kRingWaves & kRingMask) == 0, "the wave ring is indexed by a mask");

  const Grid& grid_;
  std::vector<bool> faulty_;
  Sigma warmup_;

  // Per-node state, structure-of-arrays. held_* is the one-pulse commit
  // delay realizing the node_tail=1 filter; recorded_ counts arrivals for
  // the warmup filter.
  std::vector<Sigma> held_sigma_;
  std::vector<SimTime> held_time_;
  std::vector<std::int64_t> recorded_;
  std::vector<bool> held_steady_;

  // Wave rings: node-major [node * kRingWaves + (sigma & kRingMask)].
  std::vector<Sigma> ring_sigma_;
  std::vector<SimTime> ring_time_;

  // Per-layer accumulators.
  std::vector<double> intra_by_layer_;
  std::vector<double> inter_by_layer_;
  std::vector<double> spread_by_layer_;
  std::vector<WaveExtrema> layer_ring_;  ///< layer-major [layer * kRingWaves + slot]

  std::uint64_t pairs_checked_ = 0;
  std::uint64_t window_overflows_ = 0;
  std::uint64_t out_of_order_ = 0;

  // Replay windows: the report scores pairs and spreads of waves
  // [lo_, hi_] (every wave live), the lane holds the worst deviation of
  // waves [lane_lo_, lane_lo_ + lane_.size()) (none live).
  Sigma lo_ = std::numeric_limits<Sigma>::min();
  Sigma hi_ = std::numeric_limits<Sigma>::max();
  Sigma lane_lo_ = 0;
  std::vector<double> lane_;

  ExactSum deviation_sum_;
  /// Log-binned sketch: every reported percentile is within 1% of a true
  /// order statistic, regardless of the deviation distribution's shape
  /// (P-squared markers were evaluated and rejected -- multimodal
  /// deviation mixtures wedge them; see docs/scaling.md).
  LogQuantileSketch deviation_sketch_;
};

}  // namespace gtrix
