// Baseline algorithms: naive TRIX [LW20] and HEX [DFL+16].
// The paper's comparison points (Fig. 1, Table 1):
//  * naive TRIX accumulates Theta(u D) local skew under adversarial delays,
//  * HEX suffers ~d of local skew near a preceding-layer crash,
//  * Gradient TRIX avoids both.
#include <gtest/gtest.h>

#include "baseline/hex.hpp"
#include "runner/campaign.hpp"

namespace gtrix {
namespace {

ExperimentConfig trix_config(std::uint32_t columns, std::uint64_t seed) {
  ExperimentConfig config;
  config.columns = columns;
  config.layers = columns + 1;
  config.pulses = 16;
  config.seed = seed;
  config.algorithm_spec = ComponentSpec::of("trix-naive");
  return config;
}

TEST(TrixNaive, RunsCleanlyWithRandomDelays) {
  const ExperimentResult result = run_cell(trix_config(8, 1));
  EXPECT_GT(result.skew.pairs_checked, 0u);
  // Random symmetric delays: skew stays small (a few u).
  EXPECT_LT(result.skew.max_intra, 100.0);
}

TEST(TrixNaive, AccumulatesSkewUnderSplitDelays) {
  // Adversarial column-split delays (Fig. 1 left): local skew grows with
  // the layer index for naive TRIX.
  ExperimentConfig config = trix_config(12, 2);
  config.delay_spec = ComponentSpec::of("column-split");
  config.delay_spec.params.set("split_column", 6);
  const ExperimentResult result = run_cell(config);
  const auto& profile = result.skew.intra_by_layer;
  // Skew at the last layer is much larger than in early layers.
  EXPECT_GT(profile.back(), 3.0 * profile[2]);
  // And roughly linear in depth: ~u per layer at the split boundary.
  EXPECT_GT(profile.back(), 0.5 * config.params.u * (config.layers - 2));
}

TEST(TrixNaive, GradientTrixBeatsItUnderSplitDelays) {
  ExperimentConfig config = trix_config(12, 3);
  config.delay_spec = ComponentSpec::of("column-split");
  config.delay_spec.params.set("split_column", 6);
  const ExperimentResult naive = run_cell(config);
  config.algorithm_spec = ComponentSpec::of("gradient-full");
  const ExperimentResult gradient = run_cell(config);
  EXPECT_LT(gradient.skew.intra_by_layer.back(), naive.skew.intra_by_layer.back());
}

TEST(TrixNaive, SurvivesACrashFault) {
  ExperimentConfig config = trix_config(8, 4);
  config.faults = {{4, 3, FaultSpec::crash()}};
  World world(config);
  world.run_to_completion();
  // Successors keep forwarding off the two remaining copies.
  const auto& grid = world.grid();
  const GridNodeId crashed = grid.id(4, 3);
  for (GridNodeId succ : grid.successors(crashed)) {
    EXPECT_GT(world.recorder().last_recorded(succ), 8) << grid.label(succ);
  }
}

TEST(Hex, RunsFaultFree) {
  HexConfig config;
  config.columns = 12;
  config.layers = 12;
  config.pulses = 12;
  config.seed = 1;
  const HexResult result = run_hex(config);
  EXPECT_GT(result.pulses_fired, 0u);
  // Fault-free interior skew: order u, far below d.
  EXPECT_LT(result.max_intra, config.d / 2.0);
}

TEST(Hex, CrashCostsRoughlyD) {
  HexConfig config;
  config.columns = 12;
  config.layers = 12;
  config.pulses = 12;
  config.seed = 2;
  config.crashes = {{6, 5}};
  const HexResult result = run_hex(config);
  // At/after the crash, a node waits for a same-layer copy: ~d extra skew
  // (paper Fig. 1 right).
  EXPECT_GT(result.max_intra, 0.5 * config.d);
  // Before the crash layer the skew stays small.
  EXPECT_LT(result.max_intra_away_from_faults, 0.25 * config.d);
}

TEST(Hex, FaultFreeSkewGrowsSlowly) {
  // HEX's fault-free bound d + O(u^2 D / d) is dominated by u-scale noise
  // at these sizes; verify no runaway growth with depth.
  HexConfig small;
  small.columns = 8;
  small.layers = 8;
  small.pulses = 10;
  small.seed = 3;
  HexConfig big = small;
  big.columns = 20;
  big.layers = 20;
  const HexResult a = run_hex(small);
  const HexResult b = run_hex(big);
  EXPECT_LT(b.max_intra, 6.0 * (a.max_intra + 1.0));
}

TEST(Hex, CrashOnLayerZeroTolerated) {
  HexConfig config;
  config.columns = 10;
  config.layers = 10;
  config.pulses = 10;
  config.seed = 4;
  config.crashes = {{4, 0}};
  const HexResult result = run_hex(config);
  EXPECT_GT(result.pulses_fired, 0u);
}

TEST(GradientVsHex, GradientAbsorbsCrashCheaper) {
  // The headline Table 1 comparison at test scale: a crash costs HEX ~d,
  // Gradient TRIX only O(kappa).
  HexConfig hex;
  hex.columns = 12;
  hex.layers = 12;
  hex.pulses = 12;
  hex.seed = 5;
  hex.crashes = {{6, 5}};
  const HexResult hex_result = run_hex(hex);

  ExperimentConfig config;
  config.columns = 12;
  config.layers = 12;
  config.pulses = 16;
  config.seed = 5;
  config.faults = {{6, 5, FaultSpec::crash()}};
  const ExperimentResult gradient = run_cell(config);

  EXPECT_LT(gradient.skew.max_intra, hex_result.max_intra / 2.0);
}

}  // namespace
}  // namespace gtrix
