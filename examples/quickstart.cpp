// Quickstart: build a 16x16 Gradient TRIX grid, run 20 pulses, print the
// measured skews against the paper's bounds.
//
//   ./quickstart [--columns N] [--layers N] [--pulses N] [--seed S]
#include <cstdio>

#include "runner/campaign.hpp"
#include "support/flags.hpp"

int main(int argc, char** argv) {
  const gtrix::Flags flags(argc, argv);

  gtrix::ExperimentConfig config;
  config.columns = static_cast<std::uint32_t>(flags.get_int("columns", 16));
  config.layers = static_cast<std::uint32_t>(flags.get_int("layers", 16));
  config.pulses = flags.get_int("pulses", 20);
  config.seed = flags.get_u64("seed", 1);
  config.params = gtrix::Params::derive_for(config.columns - 1, 10.0, 1.0005, 1.1);

  std::printf("Gradient TRIX quickstart\n");
  std::printf("  grid: %u columns x %u layers, diameter D = %u\n", config.columns,
              config.layers, config.columns - 1);
  std::printf("  params: %s\n", config.params.describe().c_str());

  const gtrix::ExperimentResult result = gtrix::run_cell(config);

  std::printf("\nresults over %lld pulses:\n", static_cast<long long>(config.pulses));
  std::printf("  local skew (intra-layer) : %8.2f   bound 4k(2+lgD) = %.2f\n",
              result.skew.max_intra, result.thm11_bound);
  std::printf("  local skew (inter-layer) : %8.2f\n", result.skew.max_inter);
  std::printf("  global skew              : %8.2f   bound 6 kappa D = %.2f\n",
              result.skew.global_skew, result.global_bound);
  std::printf("  events simulated         : %llu\n",
              static_cast<unsigned long long>(result.counters.events_executed));
  std::printf("  pulses forwarded         : %llu\n",
              static_cast<unsigned long long>(result.counters.iterations));
  const bool ok = result.skew.max_intra <= result.thm11_bound;
  std::printf("\n%s\n", ok ? "OK: measured skew within the Theorem 1.1 bound"
                           : "WARNING: skew exceeds the Theorem 1.1 bound");
  return ok ? 0 : 1;
}
