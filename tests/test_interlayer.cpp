// Theorem 1.4 / Corollary 1.5 at test scale: with static fault timing the
// full local skew L (intra- plus inter-layer) stays bounded, consecutive
// pulses repeat with period Lambda, and slow delay/clock variation adds
// only a proportional amount of skew.
#include <gtest/gtest.h>

#include <cmath>

#include "runner/campaign.hpp"

namespace gtrix {
namespace {

TEST(InterLayer, StaticFaultTimingKeepsFullLBounded) {
  ExperimentConfig config;
  config.columns = 10;
  config.layers = 12;
  config.pulses = 20;
  config.seed = 1;
  // Static-timing faults only (the Theorem 1.4 premise).
  config.faults = {{3, 4, FaultSpec::static_offset(150.0)},
                   {7, 8, FaultSpec::crash()}};
  const ExperimentResult result = run_cell(config);
  ASSERT_GT(result.skew.pairs_checked, 0u);
  const double bound = config.params.thm12_bound(result.diameter, 2);
  EXPECT_LE(result.skew.max_intra, bound);
  EXPECT_LE(result.skew.max_inter, 2.0 * bound);
}

TEST(InterLayer, PulsePatternRepeatsExactly) {
  // Theorem 1.4's engine: static everything implies t^{k+1} = t^k + Lambda.
  ExperimentConfig config;
  config.columns = 8;
  config.layers = 8;
  config.pulses = 16;
  config.seed = 2;
  config.faults = {{4, 3, FaultSpec::static_offset(100.0)}};
  World world(config);
  world.run_to_completion();
  const auto& grid = world.grid();
  const auto& rec = world.recorder();
  for (GridNodeId g = 0; g < grid.node_count(); ++g) {
    if (world.is_faulty(g)) continue;
    const Sigma from = rec.steady_from(g, 5);
    const Sigma last = rec.last_recorded(g) - 2;
    for (Sigma s = from; s + 1 <= last; ++s) {
      const auto t1 = rec.pulse_time(g, s);
      const auto t2 = rec.pulse_time(g, s + 1);
      if (!t1 || !t2) continue;
      ASSERT_NEAR(*t2 - *t1, config.params.lambda, 1e-6) << grid.label(g);
    }
  }
}

TEST(InterLayer, JitterFaultBreaksExactRepetition) {
  // Contrast: a timing-changing fault makes downstream pulses vary between
  // waves -- but skew stays bounded (Corollary 1.5 allows a constant
  // number of such nodes).
  ExperimentConfig config;
  config.columns = 8;
  config.layers = 8;
  config.pulses = 16;
  config.seed = 3;
  config.faults = {{4, 3, FaultSpec::jitter(80.0)}};
  World world(config);
  world.run_to_completion();
  const auto& grid = world.grid();
  const auto& rec = world.recorder();
  // The jittering node's own successor sees varying periods.
  const GridNodeId succ = grid.successors(grid.id(4, 3))[0];
  const Sigma from = rec.steady_from(succ, 5);
  bool varied = false;
  for (Sigma s = from; s + 1 <= rec.last_recorded(succ) - 2; ++s) {
    const auto t1 = rec.pulse_time(succ, s);
    const auto t2 = rec.pulse_time(succ, s + 1);
    if (!t1 || !t2) continue;
    if (std::abs((*t2 - *t1) - config.params.lambda) > 1.0) varied = true;
  }
  EXPECT_TRUE(varied);
  // Full skew still bounded.
  const auto report = world.skew();
  EXPECT_LE(report.max_intra, config.params.thm12_bound(grid.base().diameter(), 1));
}

TEST(InterLayer, SlowDelayDriftAddsProportionalSkew) {
  // Corollary 1.5 (ii): drifting link delays by delta shifts skews by at
  // most ~delta. Drift delays sinusoidally with a tiny amplitude.
  ExperimentConfig config;
  config.columns = 8;
  config.layers = 10;
  config.pulses = 24;
  config.seed = 4;
  const double amplitude = 2.0;  // absolute delay drift (<< u)
  config.delay_spec.params.set("drift_amplitude", amplitude);
  World world(config);
  world.run_to_completion();
  const auto report = world.skew();
  ASSERT_GT(report.pairs_checked, 0u);
  const double base_bound = config.params.thm11_bound(world.grid().base().diameter());
  // Drift adds at most a few multiples of the amplitude on top of the
  // fault-free bound (Lemma 4.31: a delta shift costs at most delta).
  EXPECT_LE(report.max_intra, base_bound + 8.0 * amplitude);
}

TEST(InterLayer, InterLayerSkewTracksIntraLayer) {
  // Inter-layer skew = intra-layer skew + one hop of propagation noise;
  // the two must be of the same order of magnitude.
  ExperimentConfig config;
  config.columns = 12;
  config.layers = 12;
  config.pulses = 18;
  config.seed = 5;
  const ExperimentResult result = run_cell(config);
  EXPECT_GT(result.skew.max_inter, 0.0);
  EXPECT_LE(result.skew.max_inter,
            result.skew.max_intra + 2.0 * config.params.kappa() +
                config.params.u + 1.0);
}

}  // namespace
}  // namespace gtrix
