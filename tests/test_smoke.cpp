// End-to-end smoke test: a small fault-free grid runs to completion, every
// correct node pulses every wave, and the measured local skew respects the
// Theorem 1.1 bound.
#include <gtest/gtest.h>

#include "runner/campaign.hpp"

namespace gtrix {
namespace {

TEST(Smoke, FaultFreeIdealInput) {
  ExperimentConfig config;
  config.columns = 8;
  config.layers = 8;
  config.pulses = 12;
  config.seed = 1;
  const ExperimentResult result = run_cell(config);
  EXPECT_GT(result.skew.pairs_checked, 0u);
  EXPECT_LE(result.skew.max_intra, result.thm11_bound);
  EXPECT_GT(result.counters.iterations, 0u);
}

TEST(Smoke, FaultFreeLineInput) {
  ExperimentConfig config;
  config.columns = 8;
  config.layers = 8;
  config.pulses = 14;
  config.layer0 = Layer0Mode::kLinePropagation;
  config.seed = 2;
  const ExperimentResult result = run_cell(config);
  EXPECT_GT(result.skew.pairs_checked, 0u);
  EXPECT_LE(result.skew.max_intra, result.thm11_bound);
}

}  // namespace
}  // namespace gtrix
