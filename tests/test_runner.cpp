// Experiment runner wiring: determinism, counters, trace mapping.
#include <gtest/gtest.h>

#include "runner/campaign.hpp"

namespace gtrix {
namespace {

ExperimentConfig config_for(std::uint64_t seed) {
  ExperimentConfig config;
  config.columns = 8;
  config.layers = 8;
  config.pulses = 14;
  config.seed = seed;
  return config;
}

TEST(Runner, SameSeedIsBitReproducible) {
  const ExperimentResult a = run_cell(config_for(123));
  const ExperimentResult b = run_cell(config_for(123));
  EXPECT_DOUBLE_EQ(a.skew.max_intra, b.skew.max_intra);
  EXPECT_DOUBLE_EQ(a.skew.max_inter, b.skew.max_inter);
  EXPECT_DOUBLE_EQ(a.skew.global_skew, b.skew.global_skew);
  EXPECT_EQ(a.counters.events_executed, b.counters.events_executed);
  EXPECT_EQ(a.counters.messages_sent, b.counters.messages_sent);
}

TEST(Runner, DifferentSeedsDiffer) {
  const ExperimentResult a = run_cell(config_for(1));
  const ExperimentResult b = run_cell(config_for(2));
  EXPECT_NE(a.skew.max_intra, b.skew.max_intra);
}

TEST(Runner, TraceMapsGridIdsToRecorderIds) {
  World world(config_for(3));
  const GridTrace trace = world.trace();
  EXPECT_EQ(trace.grid, &world.grid());
  EXPECT_EQ(trace.recorder, &world.recorder());
  for (GridNodeId g = 0; g < world.grid().node_count(); ++g) {
    EXPECT_EQ(world.recorder().meta(g).layer, world.grid().layer_of(g));
    EXPECT_EQ(world.recorder().meta(g).base, world.grid().base_of(g));
  }
}

TEST(Runner, FaultMetadataRegistered) {
  ExperimentConfig config = config_for(4);
  config.faults = {{3, 4, FaultSpec::crash()}, {6, 2, FaultSpec::static_offset(10.0)}};
  World world(config);
  EXPECT_TRUE(world.is_faulty(world.grid().id(3, 4)));
  EXPECT_TRUE(world.is_faulty(world.grid().id(6, 2)));
  EXPECT_FALSE(world.is_faulty(world.grid().id(5, 5)));
  EXPECT_TRUE(world.recorder().meta(world.grid().id(3, 4)).faulty);
}

TEST(Runner, GradientNodesExposedCorrectNodesOnly) {
  ExperimentConfig config = config_for(5);
  config.faults = {{3, 4, FaultSpec::crash()}};
  World world(config);
  EXPECT_EQ(world.gradient_node(world.grid().id(3, 4)), nullptr);  // crashed
  EXPECT_EQ(world.gradient_node(world.grid().id(2, 0)), nullptr);  // layer 0
  EXPECT_NE(world.gradient_node(world.grid().id(2, 3)), nullptr);
}

TEST(Runner, CountersAreAggregated) {
  World world(config_for(6));
  world.run_to_completion();
  const ExperimentCounters counters = world.counters();
  EXPECT_GT(counters.iterations, 0u);
  EXPECT_GT(counters.events_executed, counters.iterations);
  EXPECT_GT(counters.messages_sent, 0u);
}

TEST(Runner, MessagesScaleWithGridSize) {
  ExperimentConfig small = config_for(7);
  ExperimentConfig big = config_for(7);
  big.columns = 16;
  big.layers = 16;
  World ws(small);
  ws.run_to_completion();
  World wb(big);
  wb.run_to_completion();
  EXPECT_GT(wb.counters().messages_sent, 3 * ws.counters().messages_sent);
}

TEST(Runner, InvalidConfigsRejected) {
  ExperimentConfig config = config_for(8);
  config.layers = 1;
  EXPECT_THROW(World{config}, std::logic_error);
  config = config_for(8);
  config.pulses = 0;
  EXPECT_THROW(World{config}, std::logic_error);
}

TEST(Runner, DelayModelsChangeOutcomes) {
  ExperimentConfig config = config_for(9);
  config.delay_spec = ComponentSpec::of("all-max");
  const ExperimentResult all_max = run_cell(config);
  config.delay_spec = ComponentSpec::of("uniform-random");
  const ExperimentResult random = run_cell(config);
  EXPECT_NE(all_max.skew.max_intra, random.skew.max_intra);
  // Identical delays mean the only noise sources are layer-0 jitter and
  // clock offsets: skew is very small.
  EXPECT_LT(all_max.skew.max_intra, random.skew.max_intra + 50.0);
}

TEST(Runner, JumpConditionFlagPropagates) {
  // With jump damping off and benign conditions, runs still complete.
  ExperimentConfig config = config_for(10);
  config.jump_condition = false;
  const ExperimentResult result = run_cell(config);
  EXPECT_GT(result.counters.iterations, 0u);
}

TEST(Runner, RogueFaultEmitsOwnPulses) {
  ExperimentConfig config = config_for(11);
  config.faults = {{4, 4, FaultSpec::fixed_period(1500.0)}};
  World world(config);
  world.run_to_completion();
  // The rogue recorded its own pulse train.
  EXPECT_NE(world.recorder().last_recorded(world.grid().id(4, 4)),
            Recorder::kInvalidSigma);
}

}  // namespace
}  // namespace gtrix
