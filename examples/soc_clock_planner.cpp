// SoC clock-distribution planning (the paper's motivating application, §2).
//
// Given a chip specification -- die size, wire delay per mm, uncertainty,
// oscillator stability -- this example sizes a Gradient TRIX grid, runs it
// with sampled fabrication faults, and reports the achievable clock period:
// the local skew L plus twice the local clock-tree depth Delta gives the
// worst-case skew between adjacent components (t_setup budget), per the
// triangle-inequality argument in §2.
//
//   ./soc_clock_planner [--die-mm 20] [--pitch-mm 1.25] [--fault-rate 0.002]
#include <cmath>
#include <cstdio>

#include "runner/campaign.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace gtrix;
  const Flags flags(argc, argv);

  // Chip spec. Delay figures are in picoseconds (= our abstract time unit).
  const double die_mm = flags.get_double("die-mm", 20.0);
  const double pitch_mm = flags.get_double("pitch-mm", 1.25);   // grid pitch
  const double ps_per_mm = flags.get_double("ps-per-mm", 66.0); // RC wire delay
  const double uncertainty_pct = flags.get_double("uncertainty-pct", 2.0);
  const double theta = flags.get_double("theta", 1.0002);
  const double fault_rate = flags.get_double("fault-rate", 0.002);
  const double tree_depth_ps = flags.get_double("tree-skew-ps", 12.0);  // Delta
  const double logic_depth_ps = flags.get_double("logic-depth-ps", 250.0);
  const auto seed = flags.get_u64("seed", 42);

  const auto columns = static_cast<std::uint32_t>(std::lround(die_mm / pitch_mm));
  const double hop_ps = pitch_mm * ps_per_mm;           // nominal wire delay
  const double repeater_ps = 18.0;                      // gate + latch delay
  const double d = hop_ps + repeater_ps;                // max end-to-end
  const double u = d * uncertainty_pct / 100.0;

  ExperimentConfig config;
  config.columns = columns;
  config.layers = columns;  // square die
  config.params = Params::with(d, u, theta);
  config.pulses = 20;
  config.seed = seed;
  config.layer0 = Layer0Mode::kLinePropagation;  // realistic feed

  std::printf("SoC clock grid planner (Gradient TRIX)\n");
  std::printf("  die %.1f mm x %.1f mm, pitch %.2f mm -> %u x %u grid roots\n", die_mm,
              die_mm, pitch_mm, columns, columns);
  std::printf("  link delay d = %.1f ps (u = %.1f ps), oscillator drift theta = %g\n",
              d, u, theta);
  std::printf("  params: %s\n", config.params.describe().c_str());
  const std::string why = config.params.validate(columns - 1, 1.05);
  if (!why.empty()) {
    std::printf("  WARNING: parameters out of the analysis regime: %s\n", why.c_str());
  }

  // Sample permanent fabrication faults (static delay faults and dead
  // nodes), respecting the model's 1-locality with overwhelming
  // probability at this rate.
  const Grid grid(BaseGraph::line_replicated(columns), config.layers);
  Rng rng(seed);
  PlacementOptions options;
  options.probability = fault_rate;
  auto faults = sample_iid_faults(grid, options, FaultSpec::crash(), rng);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (i % 2 == 1) {
      faults[i].spec = FaultSpec::static_offset(rng.uniform(-3.0, 3.0) * u);
    }
  }
  config.faults = faults;

  std::printf("\nsampled %zu permanent faults at rate %.4f (%.1f expected)\n",
              faults.size(), fault_rate, fault_rate * grid.node_count());

  const ExperimentResult result = run_cell(config);

  const double local_skew = result.skew.local_skew;
  const double component_skew = local_skew + 2.0 * tree_depth_ps;
  // Timing budget: logic depth plus skew plus one link uncertainty margin.
  const double min_period = logic_depth_ps + component_skew + u;
  const double f_max_ghz = 1000.0 / min_period;

  Table table({"quantity", "value", "note"});
  table.row().add("intra-layer skew L_l").add(result.skew.max_intra, 1).add("ps, measured");
  table.row().add("inter-layer skew").add(result.skew.max_inter, 1).add("ps, measured");
  table.row().add("global skew").add(result.skew.global_skew, 1).add("ps, measured");
  table.row().add("Thm 1.1 bound").add(result.thm11_bound, 1).add("4k(2+lgD)");
  table.row().add("local tree skew Delta").add(tree_depth_ps, 1).add("ps, given");
  table.row().add("component skew L+2Delta").add(component_skew, 1).add("ps (triangle ineq., §2)");
  table.row().add("logic depth").add(logic_depth_ps, 1).add("ps, given");
  table.row().add("min clock period").add(min_period, 1).add("ps incl. margin");
  table.row().add("max frequency").add(f_max_ghz, 2).add("GHz");
  std::printf("\n%s", table.render().c_str());

  std::printf("\ngrid statistics: %u nodes, %llu messages, %llu events simulated\n",
              grid.node_count(),
              static_cast<unsigned long long>(result.counters.messages_sent),
              static_cast<unsigned long long>(result.counters.events_executed));
  return result.skew.max_intra <= result.thm11_bound ? 0 : 1;
}
