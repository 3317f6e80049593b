// Direct unit tests of the skew evaluator's replay of a kept trace
// (replay_skew, metrics/streaming.*) on synthetic traces with
// hand-computable answers.
#include <gtest/gtest.h>

#include <cmath>

#include "metrics/streaming.hpp"

namespace gtrix {
namespace {

/// Two-layer replicated-line world with directly settable pulse times.
struct SkewFixture {
  Grid grid;
  Recorder recorder;
  GridTrace trace;

  SkewFixture(std::uint32_t columns, std::uint32_t layers)
      : grid(BaseGraph::line_replicated(columns), layers) {
    for (GridNodeId g = 0; g < grid.node_count(); ++g) {
      NodeMeta meta;
      meta.layer = grid.layer_of(g);
      meta.base = grid.base_of(g);
      recorder.register_node(g, meta);
    }
    trace.grid = &grid;
    trace.recorder = &recorder;
    trace.node_warmup = 0;
    trace.node_tail = 0;
  }

  void set(BaseNodeId v, std::uint32_t layer, Sigma s, double t) {
    recorder.record_pulse(grid.id(v, layer), s, t);
  }

  void mark_faulty(BaseNodeId v, std::uint32_t layer) {
    NodeMeta meta = recorder.meta(grid.id(v, layer));
    meta.faulty = true;
    recorder.register_node(grid.id(v, layer), meta);
  }
};

TEST(SkewMetrics, IntraLayerMaxOverAdjacentPairs) {
  SkewFixture f(4, 1);
  // Nodes: 0,1 (col0), 2 (col1), 3 (col2), 4,5 (col3).
  const double times[] = {0.0, 2.0, 10.0, 4.0, 5.0, 6.0};
  for (BaseNodeId v = 0; v < 6; ++v) f.set(v, 0, 1, times[v]);
  const SkewReport report = replay_skew(f.trace, 1, 1).skew;
  // Largest adjacent difference: col0 node(2.0 or 0.0) vs col1 (10.0) -> 10.
  EXPECT_DOUBLE_EQ(report.intra_by_layer[0], 10.0);
  EXPECT_DOUBLE_EQ(report.max_intra, 10.0);
  // Layer spread: max 10 - min 0.
  EXPECT_DOUBLE_EQ(report.global_skew, 10.0);
}

TEST(SkewMetrics, InterLayerComparesConsecutiveWaves) {
  SkewFixture f(4, 2);
  // All layer-0 nodes pulse wave sigma at sigma*100; layer-1 nodes pulse
  // wave sigma at sigma*100 + 100 + delta(v).
  for (BaseNodeId v = 0; v < 6; ++v) {
    for (Sigma s = 1; s <= 4; ++s) {
      f.set(v, 0, s, s * 100.0);
      f.set(v, 1, s, s * 100.0 + 100.0 + (v == 3 ? 7.0 : 0.0));
    }
  }
  const SkewReport report = replay_skew(f.trace, 1, 3).skew;
  // |t^{s+1}_{v,0} - t^s_{w,1}| = |(s+1)*100 - (s*100 + 100 + delta)| = delta.
  EXPECT_DOUBLE_EQ(report.max_inter, 7.0);
  EXPECT_DOUBLE_EQ(report.inter_by_layer[0], 7.0);
}

TEST(SkewMetrics, FaultyNodesExcluded) {
  SkewFixture f(4, 1);
  for (BaseNodeId v = 0; v < 6; ++v) f.set(v, 0, 1, 0.0);
  f.set(2, 0, 1, 1e6);  // absurd outlier
  f.mark_faulty(2, 0);
  const SkewReport report = replay_skew(f.trace, 1, 1).skew;
  EXPECT_DOUBLE_EQ(report.max_intra, 0.0);
  EXPECT_GT(report.pairs_skipped, 0u);
}

TEST(SkewMetrics, MissingPulsesSkipped) {
  SkewFixture f(4, 1);
  f.set(0, 0, 1, 0.0);
  // node 1..5 have no pulses at sigma 1.
  const SkewReport report = replay_skew(f.trace, 1, 1).skew;
  EXPECT_EQ(report.pairs_checked, 0u);
  EXPECT_GT(report.pairs_skipped, 0u);
  EXPECT_DOUBLE_EQ(report.max_intra, 0.0);
}

TEST(SkewMetrics, NodeWarmupFiltersEarlyPulses) {
  SkewFixture f(4, 1);
  for (BaseNodeId v = 0; v < 6; ++v) {
    f.set(v, 0, 1, v == 2 ? 500.0 : 0.0);  // big skew at wave 1
    f.set(v, 0, 2, 100.0);                 // perfect at wave 2
    f.set(v, 0, 3, 200.0);
  }
  f.trace.node_warmup = 1;  // skip each node's first pulse
  f.trace.node_tail = 0;
  const SkewReport report = replay_skew(f.trace, 1, 3).skew;
  EXPECT_DOUBLE_EQ(report.max_intra, 0.0);  // wave-1 outlier filtered
}

TEST(SkewMetrics, NodeTailFiltersLastPulses) {
  SkewFixture f(4, 1);
  for (BaseNodeId v = 0; v < 6; ++v) {
    f.set(v, 0, 1, 0.0);
    f.set(v, 0, 2, v == 2 ? 900.0 : 100.0);  // garbage final wave
  }
  f.trace.node_warmup = 0;
  f.trace.node_tail = 1;
  const SkewReport report = replay_skew(f.trace, 1, 2).skew;
  EXPECT_DOUBLE_EQ(report.max_intra, 0.0);
}

TEST(SkewMetrics, IntraSkewBySigmaSeries) {
  SkewFixture f(4, 1);
  for (BaseNodeId v = 0; v < 6; ++v) {
    f.set(v, 0, 1, 0.0);
    f.set(v, 0, 2, v == 2 ? 105.0 : 100.0);
    f.set(v, 0, 3, 200.0);
  }
  // On a one-layer trace the replay's per-wave lane is the intra-layer
  // series of that layer.
  const auto series = replay_skew(f.trace, 1, 3, 1, 3).local_by_wave;
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0], 0.0);
  EXPECT_DOUBLE_EQ(series[1], 5.0);
  EXPECT_DOUBLE_EQ(series[2], 0.0);
}

TEST(SkewMetrics, DefaultWindowSpansRecorder) {
  SkewFixture f(4, 1);
  f.set(0, 0, 3, 1.0);
  f.set(1, 0, 9, 2.0);
  const auto [lo, hi] = default_window(f.recorder);
  EXPECT_EQ(lo, 3);
  EXPECT_EQ(hi, 9);
}

TEST(SkewMetrics, EmptyRecorderWindowIsEmpty) {
  Recorder empty;
  const auto [lo, hi] = default_window(empty);
  EXPECT_GT(lo, hi);
}

TEST(SkewMetrics, SpreadByLayerIndependentOfAdjacency) {
  SkewFixture f(5, 1);
  // Non-adjacent extremes: col0 at 0, col4 at 50, everything between at 25.
  const auto& base = f.grid.base();
  for (BaseNodeId v = 0; v < base.node_count(); ++v) {
    const std::uint32_t c = base.column(v);
    f.set(v, 0, 1, c == 0 ? 0.0 : (c == 4 ? 50.0 : 25.0));
  }
  const SkewReport report = replay_skew(f.trace, 1, 1).skew;
  EXPECT_DOUBLE_EQ(report.spread_by_layer[0], 50.0);
  EXPECT_DOUBLE_EQ(report.max_intra, 25.0);  // adjacent gap
}

TEST(SkewMetrics, WindowEdgeCountsInterPairsOfWaveHiButNotIntraPairsOfHiPlusOne) {
  SkewFixture f(4, 2);
  // Layer 0 pulses wave s at 100 s, layer 1 at 100 s + 100, so every pair
  // deviates by 0 -- except layer-0 node 2 at wave 3 = hi + 1, 7 late.
  for (BaseNodeId v = 0; v < 6; ++v) {
    for (Sigma s = 1; s <= 3; ++s) {
      f.set(v, 0, s, s * 100.0 + (v == 2 && s == 3 ? 7.0 : 0.0));
      f.set(v, 1, s, s * 100.0 + 100.0);
    }
  }
  const SkewReplay replay = replay_skew(f.trace, 1, 2, 1, 3);
  // The inter-layer pairs of node 2 at wave 3 against its successors at
  // wave 2 are attributed to wave 2 = hi: they count.
  EXPECT_DOUBLE_EQ(replay.skew.max_inter, 7.0);
  // Its intra-layer pairs at wave 3 lie past hi: neither the maximum nor
  // the wave-3 spread counts them.
  EXPECT_DOUBLE_EQ(replay.skew.max_intra, 0.0);
  EXPECT_DOUBLE_EQ(replay.skew.spread_by_layer[0], 0.0);
  // Per wave: 2 layers x 7 base edges + 20 inter-layer pairs, all readable.
  EXPECT_EQ(replay.skew.pairs_checked, 2u * (2u * 7u + 20u));
  EXPECT_EQ(replay.skew.pairs_skipped, 0u);
  // The lane has its own window: wave 3's intra-layer pairs are in it.
  ASSERT_EQ(replay.local_by_wave.size(), 3u);
  EXPECT_DOUBLE_EQ(replay.local_by_wave[0], 0.0);
  EXPECT_DOUBLE_EQ(replay.local_by_wave[1], 7.0);
  EXPECT_DOUBLE_EQ(replay.local_by_wave[2], 7.0);
}

TEST(SkewMetrics, PairsSkippedCountsMissingPulsesAndFaultyEndpoints) {
  SkewFixture f(4, 2);
  // Base nodes 0,1 (column 0), 2, 3, 4,5 (column 3); edges 0-1, 0-2, 1-2,
  // 2-3, 3-4, 3-5, 4-5. Every node pulses waves 1 and 2, except that
  // layer-0 node 5 misses wave 1; layer-1 node 3 is faulty.
  for (BaseNodeId v = 0; v < 6; ++v) {
    for (Sigma s = 1; s <= 2; ++s) {
      if (!(v == 5 && s == 1)) f.set(v, 0, s, s * 100.0);
      f.set(v, 1, s, s * 100.0 + 100.0);
    }
  }
  f.mark_faulty(3, 1);
  const SkewReport report = replay_skew(f.trace, 1, 1).skew;
  // Wave 1, layer 0: 3-5 and 4-5 miss a pulse (5 checked, 2 skipped).
  // Layer 1: 2-3, 3-4 and 3-5 have the faulty endpoint (4 checked, 3
  // skipped). Inter-layer: the 20 successor pairs less the 4 into the
  // faulty node, which are not pairs between correct nodes (16 checked).
  EXPECT_EQ(report.pairs_checked, 25u);
  EXPECT_EQ(report.pairs_skipped, 5u);
  EXPECT_EQ(report.deviations.count, 25u);
}

}  // namespace
}  // namespace gtrix
