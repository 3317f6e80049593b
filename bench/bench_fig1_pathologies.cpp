// Experiment E2 (Figure 1): the baseline pathologies.
//
// Left pane of Fig. 1: naive TRIX under a column-split delay assignment --
// one side fast (d-u), the other slow (d) -- accumulates Theta(u D) local
// skew across layers. Right pane: HEX absorbs a preceding-layer crash by
// waiting for a same-layer copy, paying ~d. Gradient TRIX is run on the
// same scenarios to show both pathologies gone.
#include <cstdio>
#include <vector>

#include "baseline/hex.hpp"
#include "runner/experiment.hpp"
#include "support/flags.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace gtrix {
namespace {

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool large = Flags::bench_scale() == "large";
  const std::uint32_t columns = static_cast<std::uint32_t>(
      flags.get_int("columns", large ? 48 : 16));
  const std::uint32_t layers = static_cast<std::uint32_t>(
      flags.get_int("layers", large ? 96 : 32));
  const auto seed = flags.get_u64("seed", 1);

  // --- Fig 1 left: skew vs layer for TRIX / Gradient TRIX, split delays ---
  ExperimentConfig config;
  config.columns = columns;
  config.layers = layers;
  config.pulses = 16;
  config.seed = seed;
  config.delay_spec = ComponentSpec::of("column-split");
  config.delay_spec.params.set("split_column", columns / 2);
  config.algorithm_spec = ComponentSpec::of("trix-naive");
  const ExperimentResult trix = run_experiment(config);
  config.algorithm_spec = ComponentSpec::of("gradient-full");
  const ExperimentResult gradient = run_experiment(config);

  std::printf("== Figure 1 (left): local skew by layer, adversarial split delays ==\n");
  std::printf("   grid %u columns x %u layers, u = %.0f, kappa = %.1f\n\n", columns,
              layers, config.params.u, config.params.kappa());
  Table by_layer({"layer", "TRIX skew", "GradientTRIX skew", "u * layer (paper: Theta(uD))"});
  for (std::uint32_t l = 1; l < layers; l += std::max(1u, layers / 16)) {
    by_layer.row()
        .add(static_cast<std::uint64_t>(l))
        .add(trix.skew.intra_by_layer[l], 1)
        .add(gradient.skew.intra_by_layer[l], 1)
        .add(config.params.u * l, 1);
  }
  std::printf("%s\n", by_layer.render().c_str());

  std::vector<double> xs, ys;
  for (std::uint32_t l = 2; l < layers; ++l) {
    xs.push_back(l);
    ys.push_back(trix.skew.intra_by_layer[l]);
  }
  const LinearFit fit = fit_linear(xs, ys);
  std::printf("TRIX skew-vs-layer fit: %.2f + %.3f * layer (r2=%.3f); paper predicts "
              "slope ~u=%.0f at the boundary\n",
              fit.intercept, fit.slope, fit.r2, config.params.u);
  std::printf("GradientTRIX last-layer skew: %.1f (bound 4k(2+lgD) = %.1f)\n\n",
              gradient.skew.intra_by_layer.back(),
              config.params.thm11_bound(columns - 1));

  // --- Fig 1 right: HEX with a crash vs Gradient TRIX with a crash ---
  HexConfig hex;
  hex.columns = columns;
  hex.layers = layers;
  hex.pulses = 14;
  hex.seed = seed;
  const HexResult hex_clean = run_hex(hex);
  hex.crashes = {{columns / 2, layers / 3}};
  const HexResult hex_crash = run_hex(hex);

  ExperimentConfig gcfg;
  gcfg.columns = columns;
  gcfg.layers = layers;
  gcfg.pulses = 16;
  gcfg.seed = seed;
  const ExperimentResult grad_clean = run_experiment(gcfg);
  gcfg.faults = {{columns / 2, layers / 3, FaultSpec::crash()}};
  const ExperimentResult grad_crash = run_experiment(gcfg);

  std::printf("== Figure 1 (right): cost of one preceding-layer crash ==\n");
  Table crash_table({"method", "fault-free skew", "with crash", "crash cost",
                     "paper prediction"});
  crash_table.row()
      .add("HEX")
      .add(hex_clean.max_intra, 1)
      .add(hex_crash.max_intra, 1)
      .add(hex_crash.max_intra - hex_clean.max_intra, 1)
      .add("~d = 1000 per fault");
  crash_table.row()
      .add("GradientTRIX")
      .add(grad_clean.skew.max_intra, 1)
      .add(grad_crash.skew.max_intra, 1)
      .add(grad_crash.skew.max_intra - grad_clean.skew.max_intra, 1)
      .add("O(kappa) = O(21)");
  std::printf("%s", crash_table.render().c_str());
  return 0;
}

}  // namespace
}  // namespace gtrix

int main(int argc, char** argv) { return gtrix::run(argc, argv); }
