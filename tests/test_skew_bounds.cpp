// Skew bound theorems on fault-free executions:
//  * Theorem 1.1: L_l <= 4 kappa (2 + log2 D)
//  * Corollary 4.23: Psi^1(l) <= 2 kappa D
//  * Corollary 4.24: global skew <= 6 kappa D
//  * Observation 4.2: L_l <= Psi^s + 4 s kappa
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "potentials.hpp"
#include "runner/campaign.hpp"

namespace gtrix {
namespace {

struct GridSetup {
  std::uint32_t columns;
  std::uint64_t seed;
  const char* delays;  ///< delay model kind
};

// gtest names each case after its printed parameter. Without this printer
// it dumps the raw bytes, padding included, so the names changed per run.
void PrintTo(const GridSetup& setup, std::ostream* os) {
  *os << setup.columns << "x" << setup.columns << " seed " << setup.seed << " "
      << setup.delays;
}

class SkewBoundSweep : public ::testing::TestWithParam<GridSetup> {};

TEST_P(SkewBoundSweep, Theorem11AndGlobalBounds) {
  const GridSetup& setup = GetParam();
  ExperimentConfig config;
  config.columns = setup.columns;
  config.layers = setup.columns;
  config.pulses = 16;
  config.seed = setup.seed;
  config.delay_spec = ComponentSpec::of(setup.delays);
  if (config.delay_spec.kind == "column-split") {
    config.delay_spec.params.set("split_column", setup.columns / 2);
  }
  const ExperimentResult result = run_cell(config);
  ASSERT_GT(result.skew.pairs_checked, 0u);
  EXPECT_LE(result.skew.max_intra, result.thm11_bound);
  EXPECT_LE(result.skew.global_skew, result.global_bound);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, SkewBoundSweep,
    ::testing::Values(GridSetup{6, 1, "uniform-random"},
                      GridSetup{6, 2, "column-split"},
                      GridSetup{10, 3, "uniform-random"},
                      GridSetup{10, 4, "alternating"},
                      GridSetup{14, 5, "uniform-random"},
                      GridSetup{14, 6, "column-split"},
                      GridSetup{18, 7, "uniform-random"}));

TEST(SkewBounds, Psi1WithinCorollary423) {
  ExperimentConfig config;
  config.columns = 10;
  config.layers = 10;
  config.pulses = 16;
  config.seed = 21;
  World world(config);
  world.run_to_completion();
  const auto trace = world.trace();
  const auto [lo, hi] = default_window(world.recorder());
  const auto profile = psi_profile(trace, config.params, 1, lo, hi);
  const double bound = config.params.psi1_bound(world.grid().base().diameter());
  for (std::uint32_t layer = 1; layer < profile.size(); ++layer) {
    if (std::isnan(profile[layer])) continue;
    EXPECT_LE(profile[layer], bound) << "layer " << layer;
  }
}

TEST(SkewBounds, Observation42LinksPotentialsToSkew) {
  ExperimentConfig config;
  config.columns = 9;
  config.layers = 9;
  config.pulses = 16;
  config.seed = 22;
  World world(config);
  world.run_to_completion();
  const auto trace = world.trace();
  const auto report = world.skew();
  const auto [lo, hi] = default_window(world.recorder());
  const double kappa = config.params.kappa();
  for (std::uint32_t s : {0u, 1u, 2u, 3u}) {
    const auto profile = psi_profile(trace, config.params, s, lo, hi);
    for (std::uint32_t layer = 0; layer < profile.size(); ++layer) {
      if (std::isnan(profile[layer])) continue;
      // L_l <= Psi^s(l) + 4 s kappa (Observation 4.2).
      EXPECT_LE(report.intra_by_layer[layer], profile[layer] + 4.0 * s * kappa + 1e-6)
          << "s=" << s << " layer=" << layer;
    }
  }
}

TEST(SkewBounds, SkewDoesNotGrowAcrossLayers) {
  // The gradient property: deep layers are no worse than O(kappa log D),
  // i.e. the last layer's skew stays within the bound (contrast: naive TRIX
  // accumulates; see test_baselines).
  ExperimentConfig config;
  config.columns = 12;
  config.layers = 24;  // deep grid
  config.pulses = 20;
  config.seed = 23;
  config.delay_spec = ComponentSpec::of("column-split");
  config.delay_spec.params.set("split_column", 6);
  const ExperimentResult result = run_cell(config);
  EXPECT_LE(result.skew.intra_by_layer.back(), result.thm11_bound);
}

TEST(SkewBounds, TightensWithSmallerUncertainty) {
  ExperimentConfig config;
  config.columns = 10;
  config.layers = 10;
  config.pulses = 16;
  config.seed = 24;
  config.params = Params::with(1000.0, 20.0, 1.0005);
  const ExperimentResult coarse = run_cell(config);
  config.params = Params::with(1000.0, 2.0, 1.0005);
  const ExperimentResult fine = run_cell(config);
  EXPECT_LT(fine.skew.max_intra, coarse.skew.max_intra);
}

TEST(SkewBounds, InterLayerSkewBounded) {
  // L_{l,l+1} is also O(kappa log D) (Theorem 1.4's fault-free core).
  ExperimentConfig config;
  config.columns = 10;
  config.layers = 12;
  config.pulses = 18;
  config.seed = 25;
  const ExperimentResult result = run_cell(config);
  // Bound with the same shape; inter-layer skew includes one hop of delay
  // uncertainty plus correction, well within 2x the intra bound.
  EXPECT_LE(result.skew.max_inter, 2.0 * result.thm11_bound);
}

}  // namespace
}  // namespace gtrix
