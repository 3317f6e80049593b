// Direct unit tests of the skew computations (metrics/skew.*) on synthetic
// traces with hand-computable answers.
#include <gtest/gtest.h>

#include <cmath>

#include "metrics/skew.hpp"

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
  const SkewReport report = compute_skew(f.trace, 1, 1);
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
  const SkewReport report = compute_skew(f.trace, 1, 3);
  // |t^{s+1}_{v,0} - t^s_{w,1}| = |(s+1)*100 - (s*100 + 100 + delta)| = delta.
  EXPECT_DOUBLE_EQ(report.max_inter, 7.0);
  EXPECT_DOUBLE_EQ(report.inter_by_layer[0], 7.0);
}

TEST(SkewMetrics, FaultyNodesExcluded) {
  SkewFixture f(4, 1);
  for (BaseNodeId v = 0; v < 6; ++v) f.set(v, 0, 1, 0.0);
  f.set(2, 0, 1, 1e6);  // absurd outlier
  f.mark_faulty(2, 0);
  const SkewReport report = compute_skew(f.trace, 1, 1);
  EXPECT_DOUBLE_EQ(report.max_intra, 0.0);
  EXPECT_GT(report.pairs_skipped, 0u);
}

TEST(SkewMetrics, MissingPulsesSkipped) {
  SkewFixture f(4, 1);
  f.set(0, 0, 1, 0.0);
  // node 1..5 have no pulses at sigma 1.
  const SkewReport report = compute_skew(f.trace, 1, 1);
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
  const SkewReport report = compute_skew(f.trace, 1, 3);
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
  const SkewReport report = compute_skew(f.trace, 1, 2);
  EXPECT_DOUBLE_EQ(report.max_intra, 0.0);
}

TEST(SkewMetrics, IntraSkewBySigmaSeries) {
  SkewFixture f(4, 1);
  for (BaseNodeId v = 0; v < 6; ++v) {
    f.set(v, 0, 1, 0.0);
    f.set(v, 0, 2, v == 2 ? 105.0 : 100.0);
    f.set(v, 0, 3, 200.0);
  }
  const auto series = intra_skew_by_sigma(f.trace, 0, 1, 3);
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0], 0.0);
  EXPECT_DOUBLE_EQ(series[1], 5.0);
  EXPECT_DOUBLE_EQ(series[2], 0.0);
}

TEST(SkewMetrics, DefaultWindowSpansRecorder) {
  SkewFixture f(4, 1);
  f.set(0, 0, 3, 1.0);
  f.set(1, 0, 9, 2.0);
  const auto [lo, hi] = default_window(f.recorder, 2);
  EXPECT_EQ(lo, 3);
  EXPECT_EQ(hi, 9);
}

TEST(SkewMetrics, EmptyRecorderWindowIsEmpty) {
  Recorder empty;
  const auto [lo, hi] = default_window(empty, 2);
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
  const SkewReport report = compute_skew(f.trace, 1, 1);
  EXPECT_DOUBLE_EQ(report.spread_by_layer[0], 50.0);
  EXPECT_DOUBLE_EQ(report.max_intra, 25.0);  // adjacent gap
}

}  // namespace
}  // namespace gtrix
