// Theorem 1.6: the pulse propagation algorithm recovers from arbitrary
// transient state corruption within O(sqrt(n)) pulses (one layer per wave).
#include <gtest/gtest.h>

#include "runner/experiment.hpp"

namespace gtrix {
namespace {

ExperimentConfig stab_config(std::uint64_t seed) {
  ExperimentConfig config;
  config.columns = 8;
  config.layers = 10;
  config.pulses = 40;
  config.seed = seed;
  config.self_stabilizing = true;
  return config;
}

/// Runs with mid-run corruption of `fraction` of all nodes; returns the
/// skew over waves after the corruption settled plus the world's counters.
struct StabOutcome {
  double tail_skew = 0.0;
  double bound = 0.0;
  ExperimentCounters counters;
  std::uint64_t pulses_after = 0;
};

StabOutcome run_with_corruption(std::uint64_t seed, double fraction) {
  const ExperimentConfig config = stab_config(seed);
  World world(config);
  Rng rng(seed ^ 0xC0FFEE);
  const double corrupt_at = 12.0 * config.params.lambda;
  world.run_until(corrupt_at);
  world.corrupt_fraction(fraction, rng);
  world.run_to_completion();
  world.realign_labels();

  StabOutcome outcome;
  outcome.bound = config.params.thm11_bound(world.grid().base().diameter());
  outcome.counters = world.counters();
  // Recovery budget: layers + slack waves after the corruption point.
  const Sigma recovery_end = 12 + static_cast<Sigma>(config.layers) + 6;
  const auto [lo, hi] = default_window(world.recorder());
  (void)lo;
  const SkewReport tail = world.skew_window(recovery_end, hi);
  outcome.tail_skew = tail.max_intra;
  outcome.pulses_after = tail.pairs_checked;
  return outcome;
}

class CorruptionSweep
    : public ::testing::TestWithParam<std::pair<std::uint64_t, double>> {};

TEST_P(CorruptionSweep, RecoversToBoundedSkew) {
  const auto [seed, fraction] = GetParam();
  const StabOutcome outcome = run_with_corruption(seed, fraction);
  ASSERT_GT(outcome.pulses_after, 0u) << "no steady pulses after recovery window";
  EXPECT_LE(outcome.tail_skew, outcome.bound)
      << "fraction=" << fraction << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Fractions, CorruptionSweep,
                         ::testing::Values(std::pair<std::uint64_t, double>{1, 0.1},
                                           std::pair<std::uint64_t, double>{2, 0.3},
                                           std::pair<std::uint64_t, double>{3, 0.6},
                                           std::pair<std::uint64_t, double>{4, 1.0}));

TEST(SelfStabilization, GuardsFireDuringRecovery) {
  const StabOutcome outcome = run_with_corruption(5, 1.0);
  // Full corruption must trip at least some Algorithm 4 machinery.
  EXPECT_GT(outcome.counters.guard_aborts + outcome.counters.watchdog_resets +
                outcome.counters.late_broadcasts,
            0u);
}

TEST(SelfStabilization, CleanRunUnaffectedBySelfStabFlag) {
  // Algorithm 4 == Algorithm 3 after stabilization (Observation C.4):
  // with no corruption, pulse times match the plain run exactly.
  ExperimentConfig config = stab_config(6);
  config.pulses = 16;
  World with_guards(config);
  with_guards.run_to_completion();

  config.self_stabilizing = false;
  World plain(config);
  plain.run_to_completion();

  const auto& grid = with_guards.grid();
  std::uint64_t compared = 0;
  for (GridNodeId g = 0; g < grid.node_count(); ++g) {
    const auto& ra = with_guards.recorder();
    const auto& rb = plain.recorder();
    const Sigma from = std::max(ra.steady_from(g, 4), rb.steady_from(g, 4));
    const Sigma last = std::min(ra.last_recorded(g), rb.last_recorded(g));
    for (Sigma s = from; s <= last; ++s) {
      const auto ta = ra.pulse_time(g, s);
      const auto tb = rb.pulse_time(g, s);
      if (!ta || !tb) continue;
      ASSERT_NEAR(*ta, *tb, 1e-9);
      ++compared;
    }
  }
  EXPECT_GT(compared, 500u);
}

TEST(SelfStabilization, RecoveryTimeScalesWithLayers) {
  // Stabilization proceeds layer by layer: a deeper grid needs
  // proportionally more waves, but still recovers within ~layers + slack.
  for (std::uint32_t layers : {6u, 12u}) {
    ExperimentConfig config = stab_config(7);
    config.layers = layers;
    config.pulses = static_cast<std::int64_t>(layers) + 26;
    World world(config);
    Rng rng(1234);
    world.run_until(10.0 * config.params.lambda);
    world.corrupt_fraction(1.0, rng);
    world.run_to_completion();
    world.realign_labels();
    const Sigma recovered = 10 + static_cast<Sigma>(layers) + 6;
    const auto [lo, hi] = default_window(world.recorder());
    (void)lo;
    const SkewReport tail = world.skew_window(recovered, hi);
    ASSERT_GT(tail.pairs_checked, 0u) << "layers=" << layers;
    EXPECT_LE(tail.max_intra,
              config.params.thm11_bound(world.grid().base().diameter()))
        << "layers=" << layers;
  }
}

TEST(SelfStabilization, WithoutGuardsRecoveryStillHappensViaWatchdog) {
  // The startup watchdog alone (Appendix C's message-freshness rule) also
  // recovers the pipeline, because propagation is directional.
  ExperimentConfig config = stab_config(8);
  config.self_stabilizing = false;  // keep watchdog (default on)
  World world(config);
  Rng rng(777);
  world.run_until(12.0 * config.params.lambda);
  world.corrupt_fraction(0.5, rng);
  world.run_to_completion();
  world.realign_labels();
  const Sigma recovered = 12 + static_cast<Sigma>(config.layers) + 8;
  const auto [lo, hi] = default_window(world.recorder());
  (void)lo;
  const SkewReport tail = world.skew_window(recovered, hi);
  ASSERT_GT(tail.pairs_checked, 0u);
  EXPECT_LE(tail.max_intra,
            config.params.thm11_bound(world.grid().base().diameter()));
}

}  // namespace
}  // namespace gtrix
