// Potential functions of Definition 4.1 on synthetic traces with known
// answers, plus consistency properties on real executions.
#include <gtest/gtest.h>

#include <cmath>

#include "potentials.hpp"
#include "runner/experiment.hpp"

namespace gtrix {
namespace {

/// Builds a 1-layer synthetic trace over a replicated line with hand-set
/// pulse times at sigma = 1.
struct SyntheticTrace {
  Grid grid;
  Recorder recorder;
  GridTrace trace;

  SyntheticTrace(std::uint32_t columns, const std::vector<double>& times)
      : grid(BaseGraph::line_replicated(columns), 1) {
    for (GridNodeId g = 0; g < grid.node_count(); ++g) {
      NodeMeta meta;
      meta.layer = 0;
      meta.base = g;
      recorder.register_node(g, meta);
      recorder.record_pulse(g, 1, times.at(g));
    }
    trace.grid = &grid;
    trace.recorder = &recorder;
    trace.node_warmup = 0;
    trace.node_tail = 0;
  }
};

const Params kParams = Params::with(1000.0, 10.0, 1.0005);

TEST(Potentials, PsiZeroIsMaxSpread) {
  // columns=4 -> nodes: v0, v0', v1, v2, v3, v3' (6 nodes).
  SyntheticTrace synth(4, {0.0, 5.0, 10.0, 20.0, 3.0, 8.0});
  // Psi^0 = max_{v,w} (t_v - t_w) = 20 - 0 = 20.
  EXPECT_DOUBLE_EQ(psi_s(synth.trace, kParams, 0, 1, 0), 20.0);
}

TEST(Potentials, PsiSubtractsDistanceWeight) {
  // Column-3 replicas pulse 100 late; everyone else at 0.
  SyntheticTrace synth(4, {0.0, 0.0, 0.0, 0.0, 100.0, 100.0});
  const double kappa = kParams.kappa();
  // s=0: plain spread.
  EXPECT_DOUBLE_EQ(psi_s(synth.trace, kParams, 0, 1, 0), 100.0);
  // s=1: the adjacent pair (column 2 vs column 3, distance 1) dominates:
  // 100 - 4 kappa beats the far pair's 100 - 12 kappa.
  EXPECT_NEAR(psi_s(synth.trace, kParams, 0, 1, 1), 100.0 - 4.0 * kappa, 1e-9);
}

TEST(Potentials, XiUsesSmallerWeight) {
  SyntheticTrace synth(4, {0.0, 0.0, 0.0, 0.0, 50.0, 50.0});
  const double kappa = kParams.kappa();
  // xi weight (4s-2)k: for s=1 it's 2k vs psi's 4k.
  const double psi = psi_s(synth.trace, kParams, 0, 1, 1);
  const double xi = xi_s(synth.trace, kParams, 0, 1, 1);
  EXPECT_NEAR(xi - psi, 2.0 * kappa, 1e-9);
}

TEST(Potentials, SymmetricTimesGiveZeroPsi0) {
  SyntheticTrace synth(4, {7.0, 7.0, 7.0, 7.0, 7.0, 7.0});
  EXPECT_DOUBLE_EQ(psi_s(synth.trace, kParams, 0, 1, 0), 0.0);
}

TEST(Potentials, MissingLayerIsNaN) {
  SyntheticTrace synth(4, {0.0, 1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_TRUE(std::isnan(psi_s(synth.trace, kParams, 0, 99, 0)));
}

TEST(Potentials, PsiDecreasesInS) {
  // Monotone: larger s subtracts more.
  SyntheticTrace synth(5, {0.0, 2.0, 13.0, 29.0, 31.0, 47.0, 45.0});
  double last = std::numeric_limits<double>::infinity();
  for (std::uint32_t s = 0; s < 5; ++s) {
    const double p = psi_s(synth.trace, kParams, 0, 1, s);
    EXPECT_LE(p, last);
    last = p;
  }
}

TEST(Potentials, ProfileOnRealRunIsBoundedAndShrinks) {
  ExperimentConfig config;
  config.columns = 10;
  config.layers = 10;
  config.pulses = 16;
  config.seed = 55;
  World world(config);
  world.run_to_completion();
  const auto trace = world.trace();
  const auto [lo, hi] = default_window(world.recorder());
  const auto p0 = psi_profile(trace, config.params, 0, lo, hi);
  const auto p2 = psi_profile(trace, config.params, 2, lo, hi);
  for (std::uint32_t layer = 0; layer < 10; ++layer) {
    if (std::isnan(p0[layer]) || std::isnan(p2[layer])) continue;
    EXPECT_LE(p2[layer], p0[layer] + 1e-9);
    EXPECT_LE(p0[layer], config.params.global_skew_bound(9));
  }
}

TEST(Potentials, FaultyNodesExcluded) {
  SyntheticTrace synth(4, {0.0, 0.0, 0.0, 0.0, 1e9, 0.0});
  // Mark the outlier node faulty: it must no longer dominate the potential.
  NodeMeta meta = synth.recorder.meta(4);
  meta.faulty = true;
  synth.recorder.register_node(4, meta);
  EXPECT_LT(psi_s(synth.trace, kParams, 0, 1, 0), 1.0);
}

}  // namespace
}  // namespace gtrix
