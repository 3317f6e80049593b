// Experiment E7 (Corollary 1.5): slow dynamics.
//
// The corollary extends Theorem 1.4 to (i) a constant number of faulty
// nodes changing behaviour per pulse, (ii) link delays varying by up to
// n^-1/2 u log D per pulse, (iii) clock speeds varying similarly. This
// harness turns each knob separately and together and reports the skew
// increase over the static baseline.
#include <cmath>
#include <cstdio>

#include "runner/experiment.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

namespace gtrix {
namespace {

struct Outcome {
  double local = 0.0;
  double inter = 0.0;
};

Outcome run_scenario(std::uint32_t columns, std::uint64_t seed, bool jitter_fault,
                     double delay_amplitude, bool vary_clocks) {
  ExperimentConfig config;
  config.columns = columns;
  config.layers = columns;
  config.pulses = 24;
  config.seed = seed;
  if (jitter_fault) {
    config.faults = {{columns / 2, columns / 2, FaultSpec::jitter(80.0)}};
  }
  if (vary_clocks) config.clock_spec = ComponentSpec::of("alternating");
  World world(config);
  if (delay_amplitude > 0.0) {
    // Sinusoidal per-edge delay modulation, period ~30 pulses: "slow
    // relative to the speed of the system".
    const double period = 30.0 * config.params.lambda;
    world.network().set_delay_modulation(
        [delay_amplitude, period](EdgeId e, SimTime t) {
          const double phase = 2.0 * 3.14159265358979 * t / period;
          return 0.5 * delay_amplitude * std::sin(phase + 0.7 * e);
        });
  }
  world.run_to_completion();
  const SkewReport report = world.skew();
  return Outcome{report.max_intra, report.max_inter};
}

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto columns = static_cast<std::uint32_t>(flags.get_int("columns", 16));
  const auto seed = flags.get_u64("seed", 1);

  const Params params = Params::with(1000.0, 10.0, 1.0005);
  const double n = static_cast<double>(columns) * columns;
  // Corollary 1.5 knob sizes: n^-1/2 u log D per pulse; our modulation is
  // bounded overall by a few of those.
  const double delta = params.u * std::log2(static_cast<double>(columns)) / std::sqrt(n);

  std::printf("== Corollary 1.5: slowly changing delays / clocks / fault behaviour ==\n");
  std::printf("   grid %ux%u, per-pulse variation budget n^-1/2 u lgD = %.3f, "
              "modulation amplitude %.2f\n\n",
              columns, columns, delta, 4.0 * delta);

  const Outcome base = run_scenario(columns, seed, false, 0.0, false);
  Table table({"scenario", "L intra", "L inter", "delta vs static"});
  table.row().add("static (baseline)").add(base.local, 1).add(base.inter, 1).add(0.0, 1);
  const Outcome drift = run_scenario(columns, seed, false, 4.0 * delta, false);
  table.row().add("(ii) delay drift").add(drift.local, 1).add(drift.inter, 1)
      .add(drift.local - base.local, 1);
  const Outcome clocks = run_scenario(columns, seed, false, 0.0, true);
  table.row().add("(iii) clock-speed spread").add(clocks.local, 1).add(clocks.inter, 1)
      .add(clocks.local - base.local, 1);
  const Outcome jitter = run_scenario(columns, seed, true, 0.0, false);
  table.row().add("(i) behaviour-changing fault").add(jitter.local, 1).add(jitter.inter, 1)
      .add(jitter.local - base.local, 1);
  const Outcome all = run_scenario(columns, seed, true, 4.0 * delta, true);
  table.row().add("(i)+(ii)+(iii)").add(all.local, 1).add(all.inter, 1)
      .add(all.local - base.local, 1);
  std::printf("%s\n", table.render().c_str());

  const double bound = params.thm11_bound(columns - 1);
  std::printf("shape check: every scenario stays O(kappa log D) -- reference bound %.1f;\n"
              "the deltas are of the order of the injected variation, not amplified.\n",
              bound);
  return all.local <= 3.0 * bound ? 0 : 1;
}

}  // namespace
}  // namespace gtrix

int main(int argc, char** argv) { return gtrix::run(argc, argv); }
