// Appendix A (Lemma A.1 / Corollary A.2): the layer-0 line forwarding
// scheme produces per-hop pulse offsets in [Lambda - kappa/2, Lambda] and
// per-node periods of exactly Lambda under static conditions.
#include <gtest/gtest.h>

#include "runner/experiment.hpp"

namespace gtrix {
namespace {

ExperimentConfig line_config(std::uint32_t columns, std::uint64_t seed) {
  ExperimentConfig config;
  config.columns = columns;
  config.layers = 2;  // layer 0 plus one consumer layer
  config.pulses = 12;
  config.layer0 = Layer0Mode::kLinePropagation;
  config.seed = seed;
  return config;
}

TEST(Layer0Line, EveryNodeForwardsEveryWave) {
  const ExperimentConfig config = line_config(8, 1);
  World world(config);
  world.run_to_completion();
  const auto& rec = world.recorder();
  const auto& grid = world.grid();
  for (BaseNodeId v = 0; v < grid.base().node_count(); ++v) {
    const GridNodeId g = grid.id(v, 0);
    const std::uint32_t c = grid.base().column(v);
    // Waves 1..pulses exist as sigma = k + column.
    for (std::int64_t k = 1; k <= config.pulses; ++k) {
      EXPECT_TRUE(rec.pulse_time(g, k + c).has_value())
          << grid.label(g) << " missing wave " << k;
    }
  }
}

TEST(Layer0Line, PeriodIsExactlyLambda) {
  const ExperimentConfig config = line_config(8, 2);
  World world(config);
  world.run_to_completion();
  const auto& rec = world.recorder();
  const auto& grid = world.grid();
  for (BaseNodeId v = 0; v < grid.base().node_count(); ++v) {
    const GridNodeId g = grid.id(v, 0);
    const std::uint32_t c = grid.base().column(v);
    for (std::int64_t k = 1; k + 1 <= config.pulses; ++k) {
      const auto t1 = rec.pulse_time(g, k + c);
      const auto t2 = rec.pulse_time(g, k + 1 + c);
      ASSERT_TRUE(t1 && t2);
      // Static delays and clock rates: consecutive pulses exactly Lambda
      // apart (Lemma A.1's induction).
      EXPECT_NEAR(*t2 - *t1, config.params.lambda, 1e-6);
    }
  }
}

TEST(Layer0Line, HopOffsetWithinLemmaA1Window) {
  const ExperimentConfig config = line_config(10, 3);
  World world(config);
  world.run_to_completion();
  const auto& rec = world.recorder();
  const auto& grid = world.grid();
  const double kappa = config.params.kappa();
  const double lambda = config.params.lambda;
  // Between column c's primary node (pulse k) and column c+1 (pulse k):
  // t_{c+1} - t_c in [Lambda - kappa/2, Lambda].
  for (std::uint32_t c = 0; c + 1 < grid.base().column_count(); ++c) {
    const GridNodeId a = grid.id(grid.base().nodes_in_column(c).front(), 0);
    for (BaseNodeId w : grid.base().nodes_in_column(c + 1)) {
      const GridNodeId b = grid.id(w, 0);
      for (std::int64_t k = 2; k <= config.pulses - 1; ++k) {
        const auto ta = rec.pulse_time(a, k + c);
        const auto tb = rec.pulse_time(b, k + c + 1);
        ASSERT_TRUE(ta && tb);
        const double hop = *tb - *ta;
        EXPECT_GE(hop, lambda - kappa / 2.0 - 1e-6);
        EXPECT_LE(hop, lambda + 1e-6);
      }
    }
  }
}

TEST(Layer0Line, PulseTimesWithinLemmaA1Envelope) {
  // t^k_i in [(k+i-1)Lambda - i kappa/2, (k+i-1)Lambda], with i = c+1 hops
  // from the source for a node in column c.
  ExperimentConfig config = line_config(16, 1);
  config.pulses = 20;
  World world(config);
  world.run_to_completion();
  const auto& rec = world.recorder();
  const auto& grid = world.grid();
  const double kappa = config.params.kappa();
  const double lambda = config.params.lambda;
  for (BaseNodeId v = 0; v < grid.base().node_count(); ++v) {
    const GridNodeId g = grid.id(v, 0);
    const std::uint32_t c = grid.base().column(v);
    for (std::int64_t k = 2; k <= config.pulses - 1; ++k) {
      const auto t = rec.pulse_time(g, k + c);
      ASSERT_TRUE(t.has_value()) << grid.label(g) << " missing wave " << k;
      const double slack = static_cast<double>(k + c) * lambda - *t;
      EXPECT_GE(slack, -1e-6) << grid.label(g) << " wave " << k;
      EXPECT_LE(slack, (static_cast<double>(c) + 1.0) * kappa / 2.0 + 1e-6)
          << grid.label(g) << " wave " << k;
    }
  }
}

TEST(Layer0Line, LocalSkewBelowHalfKappa) {
  // L_0 <= kappa/2 in the shifted (sigma) indexing (Lemma A.1).
  const ExperimentConfig config = line_config(12, 4);
  World world(config);
  world.run_to_completion();
  const auto report = world.skew();
  ASSERT_GT(report.pairs_checked, 0u);
  EXPECT_LE(report.intra_by_layer[0], config.params.kappa() / 2.0 + 1e-6);
}

TEST(Layer0Line, SelfStabilizesAfterCorruption) {
  // Corrupt every line node mid-run; within D Lambda the line must forward
  // waves with the usual spacing again (Lemma A.1 stabilization).
  ExperimentConfig config = line_config(8, 5);
  config.pulses = 30;
  World world(config);
  Rng rng(99);
  world.run_until(10.0 * config.params.lambda);
  for (GridNodeId g = 0; g < world.grid().node_count(); ++g) {
    if (world.layer0_node(g) != nullptr) world.layer0_node(g)->corrupt_state(rng);
  }
  world.run_to_completion();
  const auto& rec = world.recorder();
  const auto& grid = world.grid();
  // Waves near the end must be cleanly spaced again at every node.
  for (BaseNodeId v = 0; v < grid.base().node_count(); ++v) {
    const GridNodeId g = grid.id(v, 0);
    const std::uint32_t c = grid.base().column(v);
    const auto t1 = rec.pulse_time(g, config.pulses - 2 + c);
    const auto t2 = rec.pulse_time(g, config.pulses - 1 + c);
    ASSERT_TRUE(t1 && t2) << grid.label(g);
    EXPECT_NEAR(*t2 - *t1, config.params.lambda, 1e-6);
  }
}

TEST(Layer0Ideal, EmittersHonorJitterBound) {
  ExperimentConfig config;
  config.columns = 8;
  config.layers = 2;
  config.pulses = 6;
  config.layer0 = Layer0Mode::kIdealJitter;
  config.layer0_jitter = 7.0;
  config.seed = 6;
  World world(config);
  world.run_to_completion();
  const auto& rec = world.recorder();
  const auto& grid = world.grid();
  for (std::int64_t k = 1; k <= config.pulses; ++k) {
    for (BaseNodeId v = 0; v < grid.base().node_count(); ++v) {
      const auto t = rec.pulse_time(grid.id(v, 0), k);
      ASSERT_TRUE(t.has_value());
      const double nominal = static_cast<double>(k) * config.params.lambda;
      EXPECT_GE(*t, nominal - 1e-9);
      EXPECT_LE(*t, nominal + 7.0 + 1e-9);
    }
  }
}

TEST(Layer0Ideal, OffsetsAreStaticAcrossWaves) {
  ExperimentConfig config;
  config.columns = 6;
  config.layers = 2;
  config.pulses = 8;
  config.seed = 7;
  World world(config);
  world.run_to_completion();
  const auto& rec = world.recorder();
  const auto& grid = world.grid();
  for (BaseNodeId v = 0; v < grid.base().node_count(); ++v) {
    const GridNodeId g = grid.id(v, 0);
    const double offset0 = *rec.pulse_time(g, 1) - config.params.lambda;
    for (std::int64_t k = 2; k <= config.pulses; ++k) {
      const double offset =
          *rec.pulse_time(g, k) - static_cast<double>(k) * config.params.lambda;
      EXPECT_NEAR(offset, offset0, 1e-9);
    }
  }
}

}  // namespace
}  // namespace gtrix
