// Core behaviour of the Gradient TRIX node on small fault-free grids:
// iteration alignment (Lemma B.1), propagation bounds (Lemma D.3), and
// bookkeeping counters.
#include <gtest/gtest.h>

#include <cmath>

#include "runner/campaign.hpp"

namespace gtrix {
namespace {

ExperimentConfig small_config(std::uint64_t seed,
                              Layer0Mode layer0 = Layer0Mode::kIdealJitter) {
  ExperimentConfig config;
  config.columns = 8;
  config.layers = 8;
  config.pulses = 16;
  config.layer0 = layer0;
  config.seed = seed;
  return config;
}

TEST(GradientBasic, EveryCorrectNodePulsesEverySteadyWave) {
  World world(small_config(1));
  world.run_to_completion();
  const auto trace = world.trace();
  const auto& grid = world.grid();
  const auto& rec = world.recorder();
  for (GridNodeId g = 0; g < grid.node_count(); ++g) {
    const Sigma from = rec.steady_from(g, 3);
    const Sigma last = rec.last_recorded(g);
    ASSERT_NE(from, Recorder::kInvalidSigma) << grid.label(g);
    for (Sigma s = from; s <= last; ++s) {
      EXPECT_TRUE(rec.pulse_time(g, s).has_value())
          << grid.label(g) << " missing wave " << s;
    }
  }
  EXPECT_GT(trace.node_warmup, 0);
}

TEST(GradientBasic, LemmaB1SlotAlignment) {
  // In steady state, every iteration consumes messages carrying the same
  // wave label from every predecessor slot.
  World world(small_config(2));
  world.run_to_completion();
  const auto& grid = world.grid();
  const auto& rec = world.recorder();
  std::uint64_t checked = 0;
  for (GridNodeId g = 0; g < grid.node_count(); ++g) {
    if (grid.layer_of(g) == 0) continue;
    const auto& records = rec.iterations(g);
    for (std::size_t i = 3; i + 1 < records.size(); ++i) {
      const auto& it = records[i];
      for (std::uint8_t s = 0; s < it.slot_count; ++s) {
        ASSERT_TRUE(it.slot_seen[s]) << grid.label(g) << " iteration " << i;
        ASSERT_EQ(it.slot_sigma[s], it.sigma) << grid.label(g) << " iteration " << i;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 1000u);
}

TEST(GradientBasic, LemmaD3PropagationBounds) {
  const ExperimentConfig config = small_config(3);
  World world(config);
  world.run_to_completion();
  const auto& grid = world.grid();
  const auto& rec = world.recorder();
  const Params& p = config.params;
  std::uint64_t checked = 0;
  for (GridNodeId g = 0; g < grid.node_count(); ++g) {
    if (grid.layer_of(g) == 0) continue;
    const GridNodeId own_pred = grid.predecessors(g)[0];
    const auto& records = rec.iterations(g);
    for (std::size_t i = 3; i + 1 < records.size(); ++i) {
      const auto& it = records[i];
      if (it.late) continue;
      const auto t_prev = rec.pulse_time(own_pred, it.sigma);
      if (!t_prev) continue;
      const double gap = it.pulse_time - *t_prev;
      const double lo = p.d - p.u + (p.lambda - p.d - it.correction) / p.theta;
      const double hi = p.lambda - it.correction;
      EXPECT_GE(gap, lo - 1e-6) << grid.label(g) << " sigma " << it.sigma;
      EXPECT_LE(gap, hi + 1e-6) << grid.label(g) << " sigma " << it.sigma;
      ++checked;
    }
  }
  EXPECT_GT(checked, 500u);
}

TEST(GradientBasic, NoLateBroadcastsAfterWarmup) {
  World world(small_config(4));
  world.run_to_completion();
  const auto& grid = world.grid();
  const auto& rec = world.recorder();
  for (GridNodeId g = 0; g < grid.node_count(); ++g) {
    if (grid.layer_of(g) == 0) continue;
    const auto& records = rec.iterations(g);
    for (std::size_t i = 4; i < records.size(); ++i) {
      EXPECT_FALSE(records[i].late)
          << grid.label(g) << " late at iteration " << i;
    }
  }
}

TEST(GradientBasic, SteadyPeriodIsLambda) {
  const ExperimentConfig config = small_config(5);
  World world(config);
  world.run_to_completion();
  const auto& grid = world.grid();
  const auto& rec = world.recorder();
  for (GridNodeId g = 0; g < grid.node_count(); ++g) {
    if (grid.layer_of(g) == 0) continue;
    const Sigma from = rec.steady_from(g, 4);
    const Sigma last = rec.last_recorded(g) - 1;
    for (Sigma s = from; s + 1 <= last; ++s) {
      const auto t1 = rec.pulse_time(g, s);
      const auto t2 = rec.pulse_time(g, s + 1);
      if (!t1 || !t2) continue;
      // Static conditions: consecutive pulses exactly Lambda apart.
      EXPECT_NEAR(*t2 - *t1, config.params.lambda, 1e-6) << grid.label(g);
    }
  }
}

TEST(GradientBasic, TimeoutBranchUnusedWithoutFaults) {
  World world(small_config(6));
  world.run_to_completion();
  const auto counters = world.counters();
  // Steady-state iterations always have the own-copy message; only the
  // startup cascade may time out.
  const auto& grid = world.grid();
  const auto& rec = world.recorder();
  for (GridNodeId g = 0; g < grid.node_count(); ++g) {
    if (grid.layer_of(g) == 0) continue;
    const auto& records = rec.iterations(g);
    for (std::size_t i = 4; i < records.size(); ++i) {
      EXPECT_FALSE(records[i].timeout_branch) << grid.label(g);
    }
  }
  EXPECT_GT(counters.iterations, 0u);
}

TEST(GradientBasic, WorksOnCycleBaseGraph) {
  ExperimentConfig config = small_config(7);
  config.topology_spec = ComponentSpec::of("cycle");
  config.columns = 10;
  const ExperimentResult result = run_cell(config);
  EXPECT_GT(result.skew.pairs_checked, 0u);
  EXPECT_LE(result.skew.max_intra, result.thm11_bound);
}

TEST(GradientBasic, LineInputAlignsWithIdealBehaviour) {
  // Both layer-0 modes must deliver bounded steady skews.
  const ExperimentResult ideal = run_cell(small_config(8));
  const ExperimentResult line = run_cell(small_config(8, Layer0Mode::kLinePropagation));
  EXPECT_LE(ideal.skew.max_intra, ideal.thm11_bound);
  EXPECT_LE(line.skew.max_intra, line.thm11_bound);
}

TEST(GradientBasic, DuplicatePulsesAreIgnored) {
  // Inject duplicate pulses from a predecessor mid-run; counters must show
  // drops and skew must stay bounded.
  const ExperimentConfig config = small_config(9);
  World world(config);
  auto& net = world.network();
  const auto& grid = world.grid();
  const GridNodeId target = grid.id(grid.base().nodes_in_column(3).front(), 3);
  const GridNodeId pred = grid.predecessors(target)[1];
  for (int i = 0; i < 5; ++i) {
    net.inject(pred, target, Pulse{2},
               5.0 * config.params.lambda + i * 13.0);
  }
  world.run_to_completion();
  const auto report = world.skew();
  EXPECT_LE(report.max_intra, config.params.thm11_bound(grid.base().diameter()));
}

}  // namespace
}  // namespace gtrix
