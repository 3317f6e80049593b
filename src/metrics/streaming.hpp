// The one skew evaluator (paper §2, "Output and Skew"; docs/scaling.md,
// "The streaming accumulators"): StreamingSkew scores every intra-layer
// pair L_l(sigma), every inter-layer pair L_{l,l+1}(sigma) and every layer
// spread, and assembles the SkewReport. It is fed live on a clean
// streaming cell (the recorder hands it each pulse; O(nodes) memory), and
// by replay_skew on every cell that keeps its pulse trace, which also
// fills the per-wave lane of the Theorem 1.6 recovery scan.
//
// Both feeds share the commit code. A node's first `warmup` pulses and its
// last wave are skipped (live, each commit waits for the node's next
// pulse). Each pair is scored once, by its LATER endpoint, from the earlier
// one's ring of its last kRingWaves committed waves; the layer spread is a
// running per-(layer, wave) min/max. A lookup whose wave was already
// overwritten counts in window_overflows(), and report() then refuses to
// answer rather than under-report. Every report field -- extrema, counts,
// sketch quantiles and an exact deviation sum (ExactSum) -- is a function
// of the multiset of scored pairs, so live and replay agree bit for bit,
// whatever order the nodes' pulses interleave in.
//
// A sharded run feeds one accumulator from every shard's thread at once
// (docs/performance.md, "Deterministic metrics"). A node's own state has
// one writer, its shard; every shared value is a per-shard tally that
// report() folds exactly. A cut node, one with a pair partner on another
// shard, queues its commits for exchange(), the window barrier's serial
// step, which commits them by the same later-endpoint rule and folds the
// shards' per-(layer, wave) extrema into whole-layer spreads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
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
  /// first `warmup` live pulses are skipped. Shards cut columns, alike in
  /// every layer: `base_shard[v]` is the shard that feeds every copy of base
  /// node v (empty: one shard). The grid must outlive the accumulator.
  StreamingSkew(const Grid& grid, std::vector<bool> faulty, Sigma warmup,
                std::span<const std::uint32_t> base_shard = {});

  /// Feed one recorded pulse (live), on the thread of the `shard` owning
  /// `node`. Ids beyond the grid (the line-mode clock source) are ignored.
  /// Pulses of one node must arrive in nondecreasing sigma order (they do:
  /// a node's pulses are recorded at their emission times); violations are
  /// counted, not scored.
  void on_pulse(RecNodeId node, Sigma sigma, SimTime t, std::uint32_t shard = 0);

  /// The window barrier's step, with every shard parked: commits the cut
  /// nodes' queued pulses and folds the layer extrema. Nothing to do at one
  /// shard.
  void exchange();

  /// Assembles the SkewReport. `lo`/`hi` label the report's measurement
  /// window; the accumulated values already cover exactly the steady pulses
  /// inside it. pairs_skipped is 0 here (replay_skew sets it). Throws a
  /// runtime_error naming the count when any ring lookup overflowed.
  SkewReport report(Sigma lo, Sigma hi) const;

  /// Lookups that found the partner's wave slot overwritten, and layer slots
  /// reused before the barrier folded them: nonzero means the ring is too
  /// small for this scenario's wave stagger, and report() refuses to answer.
  std::uint64_t window_overflows() const noexcept { return total(&Shard::window_overflows); }
  /// Pulses dropped for arriving with a non-increasing sigma.
  std::uint64_t out_of_order() const noexcept { return total(&Shard::out_of_order); }
  /// Bytes the accumulator owns: node state, rings, tallies and cut buffers.
  std::uint64_t memory_bytes() const noexcept;

  /// Checkpoint codec (src/ckpt/state_ckpt.cpp): every per-node lane, wave
  /// ring, shard tally and folded layer extremum. Grid, fault set and shard
  /// plan are construction state. Only the live accumulator is saved, at a
  /// window barrier (no cut buffered, no slot unfolded, no replay window).
  void checkpoint(CkptIo& io);

 private:
  friend SkewReplay replay_skew(const GridTrace&, Sigma, Sigma, Sigma, Sigma);

  static constexpr Sigma kNoSigma = std::numeric_limits<Sigma>::min();

  struct WaveExtrema {
    Sigma sigma = kNoSigma;
    double min = 0.0;
    double max = 0.0;
    bool unfolded = false;  ///< written since the last exchange (split layers)
  };

  struct CutPulse {  ///< a cut node's commit, queued for exchange()
    RecNodeId node;
    Sigma sigma;
    SimTime t;
  };

  /// One shard's share of everything the nodes do not own, on its own
  /// cache lines: written only by the shard's thread, or by exchange().
  struct alignas(64) Shard {
    std::vector<double> intra_by_layer;
    std::vector<double> inter_by_layer;
    std::vector<double> spread_by_layer;
    std::vector<WaveExtrema> layer_ring;  ///< own columns' [layer * kRingWaves + slot]
    std::vector<std::uint32_t> unfolded;  ///< layer_ring slots to fold
    std::vector<CutPulse> cut_pulses;
    std::uint64_t pairs_checked = 0;
    std::uint64_t window_overflows = 0;
    std::uint64_t out_of_order = 0;
    ExactSum deviation_sum;
    LogQuantileSketch deviation_sketch{0.01};  ///< 1% relative error (docs/scaling.md)
  };

  void commit(Shard& shard, RecNodeId g, Sigma sigma, SimTime t);
  /// Widens layer-ring slot `we` (index `slot`) by wave `sigma`'s extent
  /// [min, max] and scores the layer's spread; false for a straggler.
  bool widen(Shard& shard, WaveExtrema& we, std::size_t slot, Sigma sigma, double min,
             double max);
  /// Committed time of `g` at `sigma` if still in the ring; NaN otherwise
  /// (overwritten slots count in the shard's window_overflows).
  double lookup(Shard& shard, RecNodeId g, Sigma sigma);
  std::uint64_t total(std::uint64_t Shard::*tally) const noexcept {
    std::uint64_t sum = 0;
    for (const Shard& shard : shards_) sum += shard.*tally;
    return sum;
  }
  /// Scores one pair attributed to `wave` into `layer_max` and the
  /// deviation sum and sketch when the wave lies in the report window, and into
  /// the per-wave lane when it lies there.
  void score(Shard& shard, double& layer_max, Sigma wave, double deviation);

  static constexpr std::size_t kRingMask = kRingWaves - 1;
  static_assert((kRingWaves & kRingMask) == 0, "the wave ring is indexed by a mask");

  const Grid& grid_;
  std::vector<bool> faulty_;
  Sigma warmup_;

  // Per-node state, structure-of-arrays, one writer per node. held_* is
  // the one-pulse commit delay realizing the node_tail=1 filter; recorded_
  // counts arrivals for the warmup filter; cut_ marks the cut nodes. Bytes,
  // not bits: nodes on two shards must not share a word.
  std::vector<Sigma> held_sigma_;
  std::vector<SimTime> held_time_;
  std::vector<std::int64_t> recorded_;
  std::vector<std::uint8_t> held_steady_;
  std::vector<std::uint8_t> cut_;

  // Wave rings: node-major [node * kRingWaves + (sigma & kRingMask)].
  std::vector<Sigma> ring_sigma_;
  std::vector<SimTime> ring_time_;

  std::vector<Shard> shards_;
  /// The shards' folded per-(layer, wave) extrema; empty at one shard.
  std::vector<WaveExtrema> layer_fold_;

  // Replay windows: the report scores pairs and spreads of waves
  // [lo_, hi_] (every wave live), the lane holds the worst deviation of
  // waves [lane_lo_, lane_lo_ + lane_.size()) (none live).
  Sigma lo_ = std::numeric_limits<Sigma>::min();
  Sigma hi_ = std::numeric_limits<Sigma>::max();
  Sigma lane_lo_ = 0;
  std::vector<double> lane_;
};

}  // namespace gtrix
