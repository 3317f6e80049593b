// Fault-tolerance behaviour (Theorems 1.2 / 1.3 at test scale):
// bounded skew with crash / offset / split / jitter / rogue faults, median
// sticking (Corollary 4.29), and mute-after transitions.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "runner/campaign.hpp"

namespace gtrix {
namespace {

/// Builds the grid a config would use (for fault-plan setup in tests).
Grid world_grid(const ExperimentConfig& config) {
  return Grid(BaseGraph::line_replicated(config.columns), config.layers);
}

ExperimentConfig fault_config(std::uint64_t seed) {
  ExperimentConfig config;
  config.columns = 10;
  config.layers = 12;
  config.pulses = 20;
  config.seed = seed;
  return config;
}

struct FaultCase {
  const char* name;
  FaultSpec spec;
};

// gtest prints the parameter beside each case name. Without this printer it
// dumps the raw bytes, the name pointer and padding included, so the listed
// names changed per run.
void PrintTo(const FaultCase& c, std::ostream* os) { *os << c.name; }

class SingleFaultSweep : public ::testing::TestWithParam<FaultCase> {};

TEST_P(SingleFaultSweep, SkewStaysWithinTheorem12Bound) {
  ExperimentConfig config = fault_config(31);
  config.faults = {{5, 5, GetParam().spec}};
  const ExperimentResult result = run_cell(config);
  ASSERT_GT(result.skew.pairs_checked, 0u);
  const double bound = config.params.thm12_bound(result.diameter, 1);
  EXPECT_LE(result.skew.max_intra, bound) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SingleFaultSweep,
    ::testing::Values(FaultCase{"crash", FaultSpec::crash()},
                      FaultCase{"offset_late", FaultSpec::static_offset(200.0)},
                      FaultCase{"offset_early", FaultSpec::static_offset(-200.0)},
                      FaultCase{"split", FaultSpec::split(150.0)},
                      FaultCase{"jitter", FaultSpec::jitter(100.0)},
                      FaultCase{"rogue", FaultSpec::fixed_period(1990.0)},
                      FaultCase{"mute", FaultSpec::mute_after(8)}),
    [](const ::testing::TestParamInfo<FaultCase>& info) {
      return std::string(info.param.name);
    });

TEST(FaultTolerance, CrashDoesNotStallDownstream) {
  ExperimentConfig config = fault_config(32);
  config.faults = {{4, 3, FaultSpec::crash()}};
  World world(config);
  world.run_to_completion();
  const auto& grid = world.grid();
  const auto& rec = world.recorder();
  // Successors of the crashed node keep pulsing (timeout branch).
  const GridNodeId crashed = grid.id(4, 3);
  for (GridNodeId succ : grid.successors(crashed)) {
    EXPECT_GT(rec.iterations(succ).size(), 10u) << grid.label(succ);
  }
  // The own-copy successor must have used the timeout branch.
  const GridNodeId own_succ = grid.successors(crashed)[0];
  std::uint64_t timeouts = 0;
  for (const auto& it : rec.iterations(own_succ)) timeouts += it.timeout_branch ? 1 : 0;
  EXPECT_GT(timeouts, 8u);
}

TEST(FaultTolerance, TwoDistantFaultsTolerated) {
  ExperimentConfig config = fault_config(33);
  config.faults = {{2, 3, FaultSpec::crash()}, {7, 8, FaultSpec::static_offset(120.0)}};
  ASSERT_TRUE(is_one_local(world_grid(config), config.faults));
  const ExperimentResult result = run_cell(config);
  EXPECT_LE(result.skew.max_intra, config.params.thm12_bound(result.diameter, 2));
}

TEST(FaultTolerance, StackedStaticOffsetFaultsStayWithinTheorem12Bound) {
  // Theorem 1.2's adversary: f static-offset faults stacked in the middle
  // column from layer 2 at stride 1, so each displacement compounds before
  // the previous one has flattened out. The thm12-worstcase-faults scenario
  // runs the split-fault half of this search.
  ExperimentConfig config;
  config.columns = 12;
  config.layers = 16;
  config.pulses = 18;
  config.seed = 1;
  const Grid grid = world_grid(config);
  const double kappa = config.params.kappa();
  for (std::uint32_t f = 1; f <= 4; ++f) {
    for (const double amplitude : {2.0 * kappa, 6.0 * kappa, 12.0 * kappa}) {
      config.faults = clustered_faults(grid, f, config.columns / 2, 2, 1,
                                       FaultSpec::static_offset(amplitude));
      const ExperimentResult result = run_cell(config);
      ASSERT_GT(result.skew.pairs_checked, 0u);
      EXPECT_LE(result.skew.max_intra, config.params.thm12_bound(config.columns - 1, f))
          << "f=" << f << " amplitude=" << amplitude;
    }
  }
}

TEST(FaultTolerance, MedianConditionHoldsUnderAllFaultKinds) {
  for (const FaultSpec& spec :
       {FaultSpec::crash(), FaultSpec::static_offset(180.0), FaultSpec::split(120.0),
        FaultSpec::fixed_period(2050.0)}) {
    ExperimentConfig config = fault_config(34);
    config.faults = {{5, 6, spec}};
    World world(config);
    world.run_to_completion();
    const ConditionReport report = world.conditions(4);
    EXPECT_GT(report.median_checked, 0u);
    EXPECT_EQ(report.median_violations, 0u)
        << "kind=" << static_cast<int>(spec.kind) << "\n"
        << (report.samples.empty() ? "" : report.samples[0]);
  }
}

TEST(FaultTolerance, MuteAfterStopsSending) {
  ExperimentConfig config = fault_config(35);
  config.faults = {{5, 5, FaultSpec::mute_after(6)}};
  World world(config);
  world.run_to_completion();
  const auto& grid = world.grid();
  // After the mute point, the own-copy successor times out on every wave.
  const GridNodeId muted = grid.id(5, 5);
  const GridNodeId own_succ = grid.successors(muted)[0];
  std::uint64_t timeouts = 0;
  for (const auto& it : world.recorder().iterations(own_succ)) {
    timeouts += it.timeout_branch ? 1 : 0;
  }
  EXPECT_GT(timeouts, 5u);
  EXPECT_LT(timeouts, world.recorder().iterations(own_succ).size());
}

TEST(FaultTolerance, RandomIidFaultsStayBounded) {
  // Theorem 1.3 at test scale: p ~ 0.5 / n^(1/2) faults, several seeds.
  for (std::uint64_t seed : {41u, 42u, 43u}) {
    ExperimentConfig config = fault_config(seed);
    Rng rng(seed * 1000);
    PlacementOptions options;
    const double n = static_cast<double>(config.columns) * config.layers;
    options.probability = 0.5 / std::sqrt(n);
    config.faults =
        sample_iid_faults(world_grid(config), options, FaultSpec::crash(), rng);
    const ExperimentResult result = run_cell(config);
    // Bounded by the single-fault Theorem 1.2 envelope with slack: random
    // sparse faults must not compound (Theorem 1.3's point).
    EXPECT_LE(result.skew.max_intra, config.params.thm12_bound(result.diameter, 1))
        << "seed " << seed << " faults " << config.faults.size();
  }
}

TEST(FaultTolerance, FaultyNodesExcludedFromSkew) {
  ExperimentConfig config = fault_config(36);
  config.faults = {{5, 5, FaultSpec::static_offset(500.0)}};
  World world(config);
  world.run_to_completion();
  EXPECT_TRUE(world.is_faulty(world.grid().id(5, 5)));
  EXPECT_TRUE(world.recorder().meta(world.grid().id(5, 5)).faulty);
}

}  // namespace
}  // namespace gtrix
