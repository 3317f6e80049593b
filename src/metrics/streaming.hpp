// Online skew accumulation for the memory-bounded (streaming) recording mode.
//
// Full-trace recording stores every pulse time and computes skew post-hoc
// (metrics/skew.cpp). At mega-grid scale (512x512 and beyond) that log no
// longer fits in RAM, so the streaming recording mode feeds each pulse
// straight into this accumulator instead and never materializes the trace.
// The accumulator reproduces compute_skew's results exactly for everything
// that is an extremum or a count:
//
//  * Per-node steady filtering is replicated online: a node's first
//    `warmup` recorded pulses are skipped (compute_skew's steady_from), and
//    committing a pulse is deferred by one further pulse of the same node,
//    which excludes exactly the node's last recorded wave (the node_tail=1
//    filter). Pulses therefore enter the accumulators precisely when they
//    would have passed GridTrace::steady_pulse.
//  * A pair (intra edge at one wave, or inter-layer successor pair at
//    adjacent waves) is scored when the LATER of its two endpoints commits
//    and the earlier one is still present in the wave ring -- each pair
//    exactly once, and |t_a - t_b| is computed from the same two doubles
//    the post-hoc path would read, so per-layer maxima, the global extrema
//    and pairs_checked are BIT-identical to full recording
//    (tests/test_streaming_metrics.cpp proves this on every builtin
//    scenario).
//  * Layer spread (global skew) uses a running per-(layer, wave) min/max;
//    the partial spreads observed along the way are always <= the final
//    one, so the running max converges to the post-hoc value exactly.
//
// Memory is O(nodes x ring + layers x ring): each node keeps a ring of its
// most recent committed waves (a constant kRingWaves = 8) for the neighbour
// lookups. The ring only needs to cover how far two ADJACENT nodes' wave
// counters can drift apart, which is bounded by the local skew (<< one
// wave) -- not the run length and not the cross-grid spread. A
// line-propagation layer 0, whose columns start one link delay apart,
// overflowed it at none of 16 to 512 columns and 4 to 48 layers. A lookup
// that misses because its wave was already overwritten is counted
// (window_overflows()), and report() turns any such miss into a hard error
// instead of an under-reported extremum.
//
// Deviation quantiles (p50/p90/p99 of all checked pair deviations) come
// from a log-binned sketch (1% relative error for any distribution shape)
// versus exact order statistics in full mode. The deviation count is
// exact; the mean agrees with full mode only to rounding (a running mean in
// (time, node) order against a sum in (wave, node) order, so the last bits
// differ on every quickstart-grid cell) until the deviation sum is made
// order-free (ROADMAP item 2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/grid.hpp"
#include "metrics/skew.hpp"
#include "support/stats.hpp"

namespace gtrix {

class StreamingSkew {
 public:
  /// Per-node wave-ring capacity (a power of two).
  static constexpr std::size_t kRingWaves = 8;

  /// `faulty[g]` marks grid node g as part of the fault set F; its pulses
  /// are ignored, exactly as compute_skew skips pairs with a faulty
  /// endpoint. A node's first `warmup` pulses are skipped. The grid must
  /// outlive the accumulator.
  StreamingSkew(const Grid& grid, std::vector<bool> faulty, Sigma warmup);

  /// Feed one recorded pulse. Ids beyond the grid (the line-mode clock
  /// source) are ignored. Pulses of one node must arrive in nondecreasing
  /// sigma order (they do: a node's pulses are recorded at their emission
  /// times); violations are counted, not scored.
  void on_pulse(RecNodeId node, Sigma sigma, SimTime t);

  /// Assembles the SkewReport. `lo`/`hi` label the report's measurement
  /// window (the recorder's global sigma envelope); the accumulated values
  /// already cover exactly the steady pulses inside it. Throws a
  /// runtime_error naming the count when any ring lookup overflowed.
  SkewReport report(Sigma lo, Sigma hi) const;

  /// Corruption anchor: pulses at or after `t_corrupt` (the injection
  /// instant) are suppressed instead of accumulated, freezing the
  /// accumulators on the clean pre-corruption epoch. Corrupted registers
  /// emit arbitrary wave labels that would otherwise poison the rings and
  /// trip the out-of-order/overflow diagnostics; the post-recovery skew of a
  /// corrupt cell is instead measured exactly from the recorder's pulse
  /// trace (World::skew_window after realignment -- docs/scaling.md,
  /// "Realignment at scale"). Suppression keys on the pulse TIME, which is
  /// label-corruption-proof and identical across engines and shard counts.
  void set_corruption_anchor(SimTime t_corrupt) {
    anchor_set_ = true;
    anchor_time_ = t_corrupt;
  }

  /// Lookups that missed because the partner's wave slot had already been
  /// overwritten -- nonzero means the ring is too small for this scenario's
  /// wave stagger, and report() refuses to answer.
  std::uint64_t window_overflows() const noexcept { return window_overflows_; }
  /// Pulses dropped for arriving with a non-increasing sigma.
  std::uint64_t out_of_order() const noexcept { return out_of_order_; }
  /// Approximate accumulator footprint, for bench_scale reporting.
  std::uint64_t memory_bytes() const noexcept;

  /// Checkpoint codec (src/ckpt/state_ckpt.cpp): every accumulator lane,
  /// ring slot, per-layer extremum, counter and the deviation summary /
  /// sketch. Grid and fault set are construction state and the lanes are
  /// only size-validated on restore.
  void checkpoint(CkptIo& io);

 private:
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
  void score(double deviation);

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
  bool anchor_set_ = false;
  SimTime anchor_time_ = 0.0;

  Summary deviation_summary_;
  /// Log-binned sketch: every reported percentile is within 1% of a true
  /// order statistic, regardless of the deviation distribution's shape
  /// (P-squared markers were evaluated and rejected -- multimodal
  /// deviation mixtures wedge them; see docs/scaling.md).
  LogQuantileSketch deviation_sketch_;
};

}  // namespace gtrix
