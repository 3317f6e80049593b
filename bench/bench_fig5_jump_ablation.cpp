// Experiment E9 (Figure 5): the jump condition ablation.
//
// Figure 5 shows why the jump condition (Definition 4.5) exists: without
// it, a node whose own copy is far from its neighbours "overswings" --
// corrections chase the raw estimate (including its measurement error), and
// adjacent nodes jumping in opposite directions feed an oscillation.
// With JC, corrections stop kappa short of the earliest/latest neighbour
// and the oscillation is damped.
//
// Scenario: adjacent columns start with alternating +/- offsets at layer 0
// (an adversarial initial skew pattern), on top of alternating delays.
#include <cstdio>

#include "runner/experiment.hpp"
#include "support/flags.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace gtrix {
namespace {

struct Outcome {
  std::vector<double> by_layer;
  double final_skew = 0.0;
  double max_skew = 0.0;
};

Outcome run_case(bool jump_condition, std::uint32_t columns, std::uint32_t layers,
                 std::uint64_t seed, double initial_amplitude) {
  ExperimentConfig config;
  config.columns = columns;
  config.layers = layers;
  config.pulses = 18;
  config.seed = seed;
  config.jump_condition = jump_condition;
  // Own-copy edges slow, cross edges fast: every neighbour-offset
  // measurement overestimates by u, so undamped jumps overshoot by u each
  // layer (the Fig. 5 amplification); drift noise is removed so the effect
  // is isolated.
  config.delay_spec = ComponentSpec::of("own-slow-cross-fast");
  config.clock_spec = ComponentSpec::of("all-slow");
  // Alternating +/- layer-0 offsets: the adversarial initial pattern of
  // Figure 5 (adjacent nodes maximally out of phase).
  config.layer0_jitter = 0.0;
  config.layer0_offset_by_column.resize(columns);
  for (std::uint32_t c = 0; c < columns; ++c) {
    config.layer0_offset_by_column[c] =
        (c % 2 == 0) ? initial_amplitude / 2.0 : -initial_amplitude / 2.0;
  }
  World world(config);
  world.run_to_completion();
  const SkewReport report = world.skew();
  Outcome outcome;
  outcome.by_layer = report.intra_by_layer;
  outcome.final_skew = report.intra_by_layer.back();
  for (std::uint32_t l = 1; l < layers; ++l) {
    outcome.max_skew = std::max(outcome.max_skew, report.intra_by_layer[l]);
  }
  return outcome;
}

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool large = Flags::bench_scale() == "large";
  const std::uint32_t columns = static_cast<std::uint32_t>(
      flags.get_int("columns", large ? 24 : 12));
  const std::uint32_t layers = static_cast<std::uint32_t>(
      flags.get_int("layers", large ? 64 : 32));
  const auto seed = flags.get_u64("seed", 1);

  const Params params = Params::with(1000.0, 10.0, 1.0005);
  const double amplitude = 8.0 * params.kappa();
  std::printf("== Figure 5: jump condition on/off under an oscillatory start ==\n");
  std::printf("   alternating +/-%.0f layer-0 offsets; own-copy edges d, cross edges d-u\n"
              "   (every offset measurement overestimates by u); grid %ux%u\n\n",
              amplitude, columns, layers);

  const Outcome with_jc = run_case(true, columns, layers, seed, amplitude);
  const Outcome without_jc = run_case(false, columns, layers, seed, amplitude);

  Table table({"layer", "skew with JC", "skew without JC", "ratio"});
  for (std::uint32_t l = 1; l < layers; l += std::max(1u, layers / 16)) {
    const double a = with_jc.by_layer[l];
    const double b = without_jc.by_layer[l];
    table.row()
        .add(static_cast<std::uint64_t>(l))
        .add(a, 1)
        .add(b, 1)
        .add(a > 0 ? b / a : 0.0, 2);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("summary: max skew with JC %.1f vs without %.1f; final layer %.1f vs %.1f\n",
              with_jc.max_skew, without_jc.max_skew, with_jc.final_skew,
              without_jc.final_skew);
  std::printf("shape check (Fig. 5): with JC the initial +/- disturbance damps out\n"
              "completely (tail skew ~0); without JC every jump overshoots by the\n"
              "measurement error u and a residual oscillation of amplitude ~u=%.0f\n"
              "persists across all layers.\n", params.u);
  return 0;
}

}  // namespace
}  // namespace gtrix

int main(int argc, char** argv) { return gtrix::run(argc, argv); }
