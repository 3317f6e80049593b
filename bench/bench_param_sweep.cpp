// Experiment E11: the kappa multiplier sweep around Equation (1).
//
// kappa must dominate the per-step measurement error u + (1-1/theta)
// (Lambda - d); the paper's choice is exactly twice that. Each row sets
// the algorithm's kappa to 0.25x..4x of the Eq.(1) value at u = 10 by
// rewriting the u in config.params. The delay models read that same u, so
// the row's real delay uncertainty moves with its kappa: every row runs
// the kappa Eq.(1) gives for its own delays, and none runs a mis-sized
// kappa against fixed delays (that ablation is ROADMAP item 6). Each row
// reports its u, the last layer's local skew and the slow/fast/jump/median
// condition violations counted against the u = 10 reference parameters.
//
// The sweep points are independent simulations, so they run through the
// parallel sweep machinery (runner/sweep.hpp); rows print in input order.
#include <cstdio>
#include <vector>

#include "runner/experiment.hpp"
#include "runner/sweep.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

namespace gtrix {
namespace {

struct SweepPoint {
  double mult = 0.0;
  ExperimentConfig config;
  SkewReport skew;
  ConditionReport report;
};

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto columns = static_cast<std::uint32_t>(flags.get_int("columns", 12));
  const auto seed = flags.get_u64("seed", 1);
  const auto threads = static_cast<unsigned>(flags.get_int("threads", 0));

  const double real_u = 10.0;
  const double theta = 1.0005;
  const Params reference = Params::with(1000.0, real_u, theta);

  std::printf("== kappa multiplier sweep around Eq. (1) ==\n");
  std::printf("   each row rewrites params.u so that kappa is the multiplier times\n"
              "   kappa(Eq.1) = %.2f at u = %.0f; the delay models read the same u,\n"
              "   so each row's delay uncertainty moves with its kappa\n\n",
              reference.kappa(), real_u);

  std::vector<SweepPoint> points;
  for (const double mult : {0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0}) {
    ExperimentConfig config;
    config.columns = columns;
    config.layers = columns;
    config.pulses = 18;
    config.seed = seed;
    // Scale kappa through u (the drift term stays fixed via lambda - d;
    // adjust u to hit the target). The delays below read this u too.
    const double drift_term = (1.0 - 1.0 / theta) * (reference.lambda - reference.d);
    const double target_kappa = mult * reference.kappa();
    const double fake_u = target_kappa / 2.0 - drift_term;
    if (fake_u <= 0.0) continue;
    config.params = Params::with(1000.0, fake_u, theta);
    // Adversarial setting where margins matter: consistent +u measurement
    // bias (own-copy edges slow) plus an oscillatory start, and one crash
    // to exercise the median machinery.
    config.delay_spec = ComponentSpec::of("own-slow-cross-fast");
    config.layer0_jitter = 0.0;
    config.layer0_offset_by_column.resize(columns);
    for (std::uint32_t c = 0; c < columns; ++c) {
      config.layer0_offset_by_column[c] = (c % 2 == 0) ? 4.0 * reference.kappa()
                                                       : -4.0 * reference.kappa();
    }
    config.faults = {{columns / 2, columns / 2, FaultSpec::crash()}};
    SweepPoint point;
    point.mult = mult;
    point.config = std::move(config);
    points.push_back(std::move(point));
  }

  parallel_for_index(points.size(), threads, [&](std::size_t i) {
    SweepPoint& point = points[i];
    World world(point.config);
    world.run_to_completion();
    point.skew = world.skew();
    // Conditions are checked against the u = 10 reference parameters.
    const GridTrace trace = world.trace();
    const auto [lo, hi] = default_window(world.recorder());
    point.report = check_conditions(trace, reference, 5, lo, hi);
  });

  Table table({"kappa mult", "u", "kappa", "L last layer", "L/kappa_ref", "SC viol",
               "FC viol", "JC viol", "median viol"});
  for (const SweepPoint& point : points) {
    table.row()
        .add(point.mult, 2)
        .add(point.config.params.u, 2)
        .add(point.config.params.kappa(), 2)
        .add(point.skew.intra_by_layer.back(), 1)
        .add(point.skew.intra_by_layer.back() / reference.kappa(), 2)
        .add(point.report.sc_violations)
        .add(point.report.fc_violations)
        .add(point.report.jc_violations)
        .add(point.report.median_violations);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("u and kappa: the row's params.u (read by the algorithm and the delays) and\n"
              "its kappa; L last layer: the last layer's max intra-layer skew; violations:\n"
              "slow/fast/jump condition and median-rule counts against the u = %.0f\n"
              "reference conditions.\n",
              real_u);
  return 0;
}

}  // namespace
}  // namespace gtrix

int main(int argc, char** argv) { return gtrix::run(argc, argv); }
