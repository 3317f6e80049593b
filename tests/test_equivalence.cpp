// Lemma B.2: without faults, the full algorithm (Algorithm 3) produces the
// same pulse times as the simplified one (Algorithm 1).
#include <gtest/gtest.h>

#include <cmath>

#include "runner/experiment.hpp"

namespace gtrix {
namespace {

class EquivalenceSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EquivalenceSweep, FullMatchesSimplified) {
  ExperimentConfig config;
  config.columns = 9;
  config.layers = 9;
  config.pulses = 15;
  config.seed = GetParam();

  config.algorithm_spec = ComponentSpec::of("gradient-full");
  World full(config);
  full.run_to_completion();

  config.algorithm_spec = ComponentSpec::of("gradient-simplified");
  World simplified(config);
  simplified.run_to_completion();

  const auto& grid = full.grid();
  const auto& rec_full = full.recorder();
  const auto& rec_simple = simplified.recorder();
  std::uint64_t compared = 0;
  for (GridNodeId g = 0; g < grid.node_count(); ++g) {
    if (grid.layer_of(g) == 0) continue;
    const Sigma from = std::max(rec_full.steady_from(g, 4), rec_simple.steady_from(g, 4));
    const Sigma last =
        std::min(rec_full.last_recorded(g), rec_simple.last_recorded(g)) - 1;
    for (Sigma s = from; s <= last; ++s) {
      const auto tf = rec_full.pulse_time(g, s);
      const auto ts = rec_simple.pulse_time(g, s);
      if (!tf || !ts) continue;
      ASSERT_NEAR(*tf, *ts, 1e-6) << grid.label(g) << " wave " << s;
      ++compared;
    }
  }
  EXPECT_GT(compared, 500u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceSweep, ::testing::Values(1, 2, 3, 4, 5));

TEST(Equivalence, CorrectionsMatchToo) {
  ExperimentConfig config;
  config.columns = 7;
  config.layers = 7;
  config.pulses = 12;
  config.seed = 77;

  World full(config);
  full.run_to_completion();
  config.algorithm_spec = ComponentSpec::of("gradient-simplified");
  World simplified(config);
  simplified.run_to_completion();

  const auto& grid = full.grid();
  std::uint64_t compared = 0;
  for (GridNodeId g = 0; g < grid.node_count(); ++g) {
    if (grid.layer_of(g) == 0) continue;
    const auto& rf = full.recorder().iterations(g);
    const auto& rs = simplified.recorder().iterations(g);
    for (const auto& itf : rf) {
      if (itf.late || itf.timeout_branch) continue;
      for (const auto& its : rs) {
        if (its.sigma != itf.sigma || its.late) continue;
        ASSERT_NEAR(itf.correction, its.correction, 1e-6)
            << grid.label(g) << " wave " << itf.sigma;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 200u);
}

TEST(Equivalence, DivergesWithFaults) {
  // Sanity: the two algorithms are NOT interchangeable when a predecessor
  // is silent -- the simplified one deadlocks on the missing message, so
  // nodes downstream of the crash stop pulsing.
  ExperimentConfig config;
  config.columns = 7;
  config.layers = 7;
  config.pulses = 12;
  config.seed = 78;
  config.faults = {{3, 2, FaultSpec::crash()}};

  World full(config);
  full.run_to_completion();
  config.algorithm_spec = ComponentSpec::of("gradient-simplified");
  World simplified(config);
  simplified.run_to_completion();

  // The crashed node's own successor never completes an iteration under
  // Algorithm 1, but does under Algorithm 3.
  const auto& grid = full.grid();
  const GridNodeId successor = grid.id(3, 3);
  EXPECT_GT(full.recorder().iterations(successor).size(),
            simplified.recorder().iterations(successor).size());
}

}  // namespace
}  // namespace gtrix
