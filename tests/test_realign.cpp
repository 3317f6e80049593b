// Unit tests for post-run wave-label realignment (metrics/realign.*).
#include <gtest/gtest.h>

#include "metrics/realign.hpp"

namespace gtrix {
namespace {

constexpr double kLambda = 2000.0;

/// Synthetic multi-layer trace: each node pulses at
/// (sigma + layer) * Lambda + noise, with optional per-node label shifts.
struct SyntheticWorld {
  Grid grid;
  Recorder recorder;
  GridTrace trace;

  SyntheticWorld(std::uint32_t columns, std::uint32_t layers, Sigma waves)
      : grid(BaseGraph::line_replicated(columns), layers) {
    for (GridNodeId g = 0; g < grid.node_count(); ++g) {
      NodeMeta meta;
      meta.layer = grid.layer_of(g);
      meta.base = grid.base_of(g);
      recorder.register_node(g, meta);
      for (Sigma s = 1; s <= waves; ++s) {
        const double t =
            (static_cast<double>(s) + grid.layer_of(g)) * kLambda + 3.0 * g / 100.0;
        recorder.record_pulse(g, s, t);
      }
    }
    trace.grid = &grid;
    trace.recorder = &recorder;
    trace.node_warmup = 0;
    trace.node_tail = 0;
  }
};

TEST(Realign, CleanTraceUntouched) {
  SyntheticWorld world(6, 5, 10);
  const RealignStats stats = realign_wave_labels(world.recorder, world.trace, kLambda);
  EXPECT_EQ(stats.nodes_shifted, 0u);
  EXPECT_EQ(stats.max_abs_shift, 0);
}

TEST(Realign, SingleShiftedNodeCorrected) {
  SyntheticWorld world(6, 5, 10);
  const GridNodeId victim = world.grid.id(3, 2);
  // Mislabel by -1: its pulse at (s+layer)Lambda now carries label s-1.
  world.recorder.shift_node_sigma(victim, -1);
  ASSERT_FALSE(world.recorder.pulse_time(victim, 10).has_value());
  const RealignStats stats = realign_wave_labels(world.recorder, world.trace, kLambda);
  EXPECT_EQ(stats.nodes_shifted, 1u);
  EXPECT_EQ(stats.max_abs_shift, 1);
  // Labels restored: wave 10 exists again at the right time.
  const auto t = world.recorder.pulse_time(victim, 10);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, (10.0 + 2.0) * kLambda, 1.0);
}

TEST(Realign, MultiNodeMixedShifts) {
  SyntheticWorld world(8, 6, 12);
  world.recorder.shift_node_sigma(world.grid.id(2, 3), -1);
  world.recorder.shift_node_sigma(world.grid.id(5, 4), 2);
  world.recorder.shift_node_sigma(world.grid.id(6, 1), -2);
  const RealignStats stats = realign_wave_labels(world.recorder, world.trace, kLambda);
  EXPECT_EQ(stats.nodes_shifted, 3u);
  EXPECT_EQ(stats.max_abs_shift, 2);
  // Everything consistent again: same-sigma pulses across a layer align.
  for (Sigma s = 3; s <= 10; ++s) {
    for (std::uint32_t layer = 1; layer < 6; ++layer) {
      for (BaseNodeId v = 0; v < world.grid.base().node_count(); ++v) {
        const auto t = world.recorder.pulse_time(world.grid.id(v, layer), s);
        ASSERT_TRUE(t.has_value()) << "layer " << layer << " v " << v << " s " << s;
        // Synthetic per-node noise is 3g/100 <= ~2 time units.
        EXPECT_NEAR(*t, (static_cast<double>(s) + layer) * kLambda, 2.0);
      }
    }
  }
}

TEST(Realign, Layer0IsTheAnchor) {
  // Shift an entire upper layer: realignment must move it back toward the
  // layer-0 reference rather than leaving the majority alone.
  SyntheticWorld world(6, 4, 10);
  for (BaseNodeId v = 0; v < world.grid.base().node_count(); ++v) {
    world.recorder.shift_node_sigma(world.grid.id(v, 3), -1);
  }
  const RealignStats stats = realign_wave_labels(world.recorder, world.trace, kLambda);
  EXPECT_EQ(stats.nodes_shifted, world.grid.base().node_count());
  const auto t = world.recorder.pulse_time(world.grid.id(0, 3), 9);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, (9.0 + 3.0) * kLambda, 1.0);
}

TEST(Realign, NodesWithFewPulsesSkipped) {
  SyntheticWorld world(6, 4, 10);
  // A node with only 2 pulses cannot be realigned reliably; it is skipped.
  Recorder& rec = world.recorder;
  const GridNodeId sparse = world.grid.id(1, 2);
  // Rebuild that node's log with only two entries, shifted.
  NodeMeta meta = rec.meta(sparse);
  Recorder fresh;
  (void)meta;
  // Simpler: shift it and verify realign does not crash and reports a
  // shift for it (it has 10 pulses) -- then truncate indirectly by testing
  // a genuinely sparse synthetic recorder:
  Recorder sparse_rec;
  Grid small(BaseGraph::line_replicated(4), 2);
  GridTrace trace;
  trace.grid = &small;
  trace.recorder = &sparse_rec;
  for (GridNodeId g = 0; g < small.node_count(); ++g) sparse_rec.register_node(g, {});
  trace.node_warmup = 0;
  trace.node_tail = 0;
  // Layer 0 has 3 pulses; the layer-1 node only 2 (insufficient).
  for (BaseNodeId v = 0; v < small.base().node_count(); ++v) {
    for (Sigma s = 1; s <= 3; ++s) {
      sparse_rec.record_pulse(small.id(v, 0), s, static_cast<double>(s) * kLambda);
    }
    sparse_rec.record_pulse(small.id(v, 1), 1, 1.0 * kLambda + kLambda);
    sparse_rec.record_pulse(small.id(v, 1), 2, 2.0 * kLambda + kLambda);
  }
  const RealignStats stats = realign_wave_labels(sparse_rec, trace, kLambda);
  EXPECT_EQ(stats.nodes_shifted, 0u);
}

TEST(Realign, ShiftNodeSigmaMovesIterations) {
  Recorder rec;
  rec.register_node(0, {});
  rec.record_pulse(0, 4, 100.0);
  IterationRecord it;
  it.sigma = 4;
  rec.record_iteration(0, it);
  rec.shift_node_sigma(0, 3);
  EXPECT_TRUE(rec.pulse_time(0, 7).has_value());
  EXPECT_FALSE(rec.pulse_time(0, 4).has_value());
  EXPECT_EQ(rec.iterations(0)[0].sigma, 7);
}

TEST(Realign, ZeroShiftIsNoOp) {
  Recorder rec;
  rec.register_node(0, {});
  rec.record_pulse(0, 4, 100.0);
  rec.shift_node_sigma(0, 0);
  EXPECT_TRUE(rec.pulse_time(0, 4).has_value());
}

}  // namespace
}  // namespace gtrix
