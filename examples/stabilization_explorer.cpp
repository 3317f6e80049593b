// Self-stabilization walkthrough (Theorem 1.6).
//
// Runs a grid to steady state, scrambles the state of every node (a
// system-wide transient fault: radiation event / voltage droop, §C), and
// prints the per-wave local skew before, during, and after the event,
// along with the recovery machinery's counters. The fault is an instant,
// and a layer-l node emits wave s near (s + l) Lambda, so a wave below the
// corruption wave can straddle it; the table labels each wave by its
// recorded pulse times.
//
//   ./stabilization_explorer [--columns 10] [--layers 12] [--fraction 1.0]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <vector>

#include "runner/experiment.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace gtrix;
  const Flags flags(argc, argv);
  ExperimentConfig config;
  config.columns = static_cast<std::uint32_t>(flags.get_int("columns", 10));
  config.layers = static_cast<std::uint32_t>(flags.get_int("layers", 12));
  config.pulses = flags.get_int("pulses", 44);
  config.seed = flags.get_u64("seed", 7);
  config.self_stabilizing = true;
  const double fraction = flags.get_double("fraction", 1.0);
  const Sigma corrupt_wave = flags.get_int("corrupt-wave", 12);

  std::printf("self-stabilization explorer: %ux%u grid, corrupting %.0f%% of nodes "
              "at wave %lld\n",
              config.columns, config.layers, fraction * 100.0,
              static_cast<long long>(corrupt_wave));
  std::printf("  params: %s\n\n", config.params.describe().c_str());

  World world(config);
  Rng rng(config.seed ^ 0xBADC0DE);
  world.run_until(static_cast<double>(corrupt_wave) * config.params.lambda);
  const auto before = world.counters();
  world.corrupt_fraction(fraction, rng);
  world.run_to_completion();
  const RealignStats realign = world.realign_labels();
  const auto after = world.counters();

  const double bound = config.params.thm11_bound(world.grid().base().diameter());
  const auto [lo, hi] = default_window(world.recorder());
  const Sigma table_lo = std::max<Sigma>(lo, corrupt_wave - 4);
  // The per-wave lane of one replay of the realigned trace: the worst
  // deviation of any correct intra-layer pair at the wave or inter-layer
  // pair attributed to it -- the series the Theorem 1.6 recovery scan reads.
  const std::vector<double> worst_by_wave =
      replay_skew(world.trace(), table_lo, hi, table_lo, hi).local_by_wave;

  // Recovered at the first wave after which the series stays within the
  // bound, from the corruption wave on: the campaign's recovery scan rule.
  Sigma last_violation = corrupt_wave - 1;
  for (std::size_t i = 0; i < worst_by_wave.size(); ++i) {
    const Sigma s = table_lo + static_cast<Sigma>(i);
    if (s >= corrupt_wave && worst_by_wave[i] > bound) last_violation = s;
  }
  const bool recovered = last_violation < hi;
  const Sigma recovered_at = last_violation + 1;

  // Events at the instant itself ran before the corruption.
  const double fault_time = static_cast<double>(corrupt_wave) * config.params.lambda;
  const Recorder& recorder = world.recorder();
  Table table({"wave", "worst local skew", "vs bound", "state"});
  for (std::size_t i = 0; i < worst_by_wave.size(); ++i) {
    const Sigma s = table_lo + static_cast<Sigma>(i);
    const double worst = worst_by_wave[i];
    bool before = false;
    bool after = false;
    for (RecNodeId node = 0; node < recorder.node_count(); ++node) {
      if (const std::optional<SimTime> t = recorder.pulse_time(node, s)) {
        (*t <= fault_time ? before : after) = true;
      }
    }
    const char* state = "in bound";
    if (before && !after) {
      state = "pre-fault";
    } else if (before && after) {
      state = "straddles fault";
    } else if (worst > bound) {
      state = "DISTURBED";
    } else if (recovered && s >= recovered_at) {
      state = "recovered";
    }
    Table& row = table.row().add(static_cast<std::int64_t>(s));
    if (std::isnan(worst)) {
      row.add("-").add("-").add("(no complete pairs)");
    } else {
      row.add(worst, 1).add(worst / bound, 3).add(state);
    }
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("recovery machinery:\n");
  std::printf("  watchdog resets : %llu\n",
              static_cast<unsigned long long>(after.watchdog_resets - before.watchdog_resets));
  std::printf("  guard aborts    : %llu\n",
              static_cast<unsigned long long>(after.guard_aborts - before.guard_aborts));
  std::printf("  late broadcasts : %llu\n",
              static_cast<unsigned long long>(after.late_broadcasts - before.late_broadcasts));
  std::printf("  label shifts    : %u nodes (max |shift| %lld)\n", realign.nodes_shifted,
              static_cast<long long>(realign.max_abs_shift));
  if (recovered) {
    std::printf("\nrecovered at wave %lld, %lld waves after the fault "
                "(Theorem 1.6 budget: O(#layers) = %u)\n",
                static_cast<long long>(recovered_at),
                static_cast<long long>(recovered_at - corrupt_wave), config.layers);
  } else {
    std::printf("\nWARNING: no recovery observed within the run\n");
  }
  return recovered ? 0 : 1;
}
