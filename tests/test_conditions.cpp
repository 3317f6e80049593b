// Property tests for Lemmas D.4, D.5, D.6 (slow / fast / jump conditions),
// D.2, D.3: every recorded steady iteration of every correct node must
// satisfy them, across seeds, drift rates, and delay models.
#include <gtest/gtest.h>

#include <ostream>

#include "runner/experiment.hpp"
#include "scenario/spec.hpp"

namespace gtrix {
namespace {

struct ConditionCase {
  std::uint64_t seed;
  double u;
  double theta;
  const char* delays;  ///< delay model kind
  Layer0Mode layer0;
};

// gtest names each case after its printed parameter. Without this printer
// it dumps the raw bytes, padding included, so the names changed per run.
void PrintTo(const ConditionCase& s, std::ostream* os) {
  *os << "seed " << s.seed << " u " << s.u << " theta " << s.theta << " " << s.delays << " "
      << to_string(s.layer0);
}

class ConditionSweep : public ::testing::TestWithParam<ConditionCase> {};

TEST_P(ConditionSweep, AllConditionsHold) {
  const ConditionCase& scenario = GetParam();
  ExperimentConfig config;
  config.columns = 10;
  config.layers = 10;
  config.pulses = 18;
  config.seed = scenario.seed;
  config.params = Params::with(1000.0, scenario.u, scenario.theta);
  config.delay_spec = ComponentSpec::of(scenario.delays);
  if (config.delay_spec.kind == "column-split") config.delay_spec.params.set("split_column", 5);
  config.layer0 = scenario.layer0;
  ASSERT_TRUE(config.params.valid_for(config.columns - 1, 1.0));

  World world(config);
  world.run_to_completion();
  const ConditionReport report = world.conditions(6);
  EXPECT_GT(report.sc_checked, 0u);
  EXPECT_GT(report.fc_checked, 0u);
  EXPECT_GT(report.jc_checked, 0u);
  EXPECT_TRUE(report.ok()) << report.summary() << "\nfirst violations:\n"
                           << (report.samples.empty() ? "" : report.samples[0]);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ConditionSweep,
    ::testing::Values(
        ConditionCase{1, 10.0, 1.0005, "uniform-random", Layer0Mode::kIdealJitter},
        ConditionCase{2, 10.0, 1.0005, "uniform-random", Layer0Mode::kLinePropagation},
        ConditionCase{3, 5.0, 1.0002, "uniform-random", Layer0Mode::kIdealJitter},
        ConditionCase{4, 20.0, 1.001, "uniform-random", Layer0Mode::kIdealJitter},
        ConditionCase{5, 10.0, 1.0005, "column-split", Layer0Mode::kIdealJitter},
        ConditionCase{6, 10.0, 1.0005, "alternating", Layer0Mode::kIdealJitter},
        ConditionCase{7, 10.0, 1.0005, "all-max", Layer0Mode::kIdealJitter},
        ConditionCase{8, 10.0, 1.0005, "all-min", Layer0Mode::kLinePropagation},
        ConditionCase{9, 1.0, 1.00005, "uniform-random", Layer0Mode::kIdealJitter},
        ConditionCase{10, 10.0, 1.0005, "uniform-random", Layer0Mode::kIdealJitter}));

TEST(Conditions, HoldUnderClockModelExtremes) {
  for (const char* model : {"all-fast", "all-slow", "alternating"}) {
    ExperimentConfig config;
    config.columns = 8;
    config.layers = 8;
    config.pulses = 14;
    config.seed = 42;
    config.clock_spec = ComponentSpec::of(model);
    World world(config);
    world.run_to_completion();
    const ConditionReport report = world.conditions(5);
    EXPECT_TRUE(report.ok()) << "model=" << model << ": "
                             << report.summary();
  }
}

TEST(Conditions, MedianHoldsWithCrashFault) {
  ExperimentConfig config;
  config.columns = 8;
  config.layers = 10;
  config.pulses = 16;
  config.seed = 11;
  config.faults = {{config.columns / 2, 4, FaultSpec::crash()}};
  World world(config);
  world.run_to_completion();
  const ConditionReport report = world.conditions(5);
  EXPECT_GT(report.median_checked, 0u);
  EXPECT_TRUE(report.ok()) << report.summary() << "\n"
                           << (report.samples.empty() ? "" : report.samples[0]);
}

TEST(Conditions, MedianHoldsWithOffsetFault) {
  ExperimentConfig config;
  config.columns = 8;
  config.layers = 10;
  config.pulses = 16;
  config.seed = 12;
  config.faults = {{3, 5, FaultSpec::static_offset(150.0)}};
  World world(config);
  world.run_to_completion();
  const ConditionReport report = world.conditions(5);
  EXPECT_GT(report.median_checked, 0u);
  EXPECT_TRUE(report.ok()) << report.summary() << "\n"
                           << (report.samples.empty() ? "" : report.samples[0]);
}

TEST(Conditions, ReportSummaryIsReadable) {
  ConditionReport report;
  report.sc_checked = 10;
  report.sc_violations = 1;
  const std::string s = report.summary();
  EXPECT_NE(s.find("SC 1/10"), std::string::npos);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.total_violations(), 1u);
}

}  // namespace
}  // namespace gtrix
