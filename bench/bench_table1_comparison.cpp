// Experiment E1 (Table 1): method comparison.
//
// The paper's Table 1 compares HEX, TRIX and Gradient TRIX on skew and
// resilience. This harness measures local and global skew for each method
// on the same grid sizes, fault-free and with one crash fault, and prints
// rows in the table's spirit. The shape claims to verify:
//  * Gradient TRIX's local skew ~ kappa log D, flat in D compared to TRIX,
//  * naive TRIX's skew grows with D under adversarial (split) delays,
//  * HEX pays ~d after a crash; Gradient TRIX pays O(kappa).
#include <cstdio>
#include <functional>
#include <vector>

#include "baseline/hex.hpp"
#include "baseline/lynch_welch.hpp"
#include "gcs/gcs.hpp"
#include "runner/experiment.hpp"
#include "runner/sweep.hpp"
#include "support/check.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

namespace gtrix {
namespace {

struct Row {
  std::string method;
  std::string scenario;
  std::uint32_t diameter;
  double local = 0.0;
  double global = 0.0;
  std::string paper_bound;
};

/// The adversarial column-split delays, split at the center column.
ComponentSpec center_split_delays(std::uint32_t columns) {
  ComponentSpec spec = ComponentSpec::of("column-split");
  spec.params.set("split_column", columns / 2);
  return spec;
}

Row run_gradient(std::uint32_t columns, bool crash, const ComponentSpec& delays,
                 std::uint64_t seed) {
  ExperimentConfig config;
  config.columns = columns;
  config.layers = columns;
  config.pulses = 16;
  config.seed = seed;
  config.delay_spec = delays;
  if (crash) config.faults = {{columns / 2, columns / 3, FaultSpec::crash()}};
  const ExperimentResult result = run_experiment(config);
  Row row;
  row.method = "GradientTRIX";
  row.diameter = result.diameter;
  row.local = result.skew.max_intra;
  row.global = result.skew.global_skew;
  row.paper_bound = "O(u logD) local, O(uD) global";
  return row;
}

Row run_trix(std::uint32_t columns, bool crash, const ComponentSpec& delays,
             std::uint64_t seed) {
  ExperimentConfig config;
  config.columns = columns;
  config.layers = columns;
  config.pulses = 16;
  config.seed = seed;
  config.algorithm_spec = ComponentSpec::of("trix-naive");
  config.delay_spec = delays;
  if (crash) config.faults = {{columns / 2, columns / 3, FaultSpec::crash()}};
  const ExperimentResult result = run_experiment(config);
  Row row;
  row.method = "TRIX";
  row.diameter = result.diameter;
  row.local = result.skew.max_intra;
  row.global = result.skew.global_skew;
  row.paper_bound = "O(uD) local, O(uD^2) global";
  return row;
}

Row run_lw_row(std::uint64_t seed, bool faults) {
  // Complete graph reference point: D = 1, tolerates f < n/3 Byzantine.
  LynchWelchConfig config;
  config.n = 16;
  config.f = 5;
  config.byzantine = faults ? 5 : 0;
  config.rounds = 24;
  config.seed = seed;
  const LynchWelchResult result = run_lynch_welch(config);
  Row row;
  row.method = "LW (complete)";
  row.diameter = 1;
  row.local = result.max_skew_after_convergence;
  row.global = result.max_skew_after_convergence;
  row.paper_bound = "O(1); < n/3 Byzantine";
  return row;
}

Row run_gcs_row(std::uint32_t columns, bool crash, std::uint64_t seed) {
  GcsConfig config;
  config.columns = columns;
  config.seed = seed;
  if (crash) config.crashes = {static_cast<BaseNodeId>(columns / 2)};
  const GcsResult result = run_gcs(config);
  Row row;
  row.method = "GCS";
  row.diameter = columns - 1;
  row.local = result.local_skew;
  row.global = result.global_skew;
  row.paper_bound = "O(u logD) local, O(uD) global; crashes only";
  return row;
}

Row run_hex_row(std::uint32_t columns, bool crash, std::uint64_t seed) {
  HexConfig config;
  config.columns = columns;
  config.layers = columns;
  config.pulses = 14;
  config.seed = seed;
  if (crash) config.crashes = {{columns / 2, columns / 3}};
  const HexResult result = run_hex(config);
  Row row;
  row.method = "HEX";
  row.diameter = columns - 1;
  row.local = result.max_intra;
  row.global = 0.0;  // HEX harness tracks local skew only
  row.paper_bound = "d + O(u^2 D/d) local (+d per fault)";
  return row;
}

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool large = Flags::bench_scale() == "large";
  std::vector<std::uint32_t> sizes = {8, 16, 32};
  if (large) sizes = {8, 16, 32, 64, 128};
  const auto seed = flags.get_u64("seed", 1);
  const auto threads = static_cast<unsigned>(flags.get_int("threads", 0));

  std::printf("== Table 1: method comparison (measured skews, same substrate) ==\n");
  std::printf("   delay model: adversarial column split (worst case for TRIX);\n");
  std::printf("   'crash' adds one crash fault mid-grid. Time unit: d = 1000.\n\n");

  // Every row is an independent simulation (each harness builds its own
  // Simulator), so the whole table is computed as one parallel fan-out and
  // rendered in input order afterwards.
  struct Cell {
    std::string scenario;
    std::function<Row()> task;
    Row row;
  };
  std::vector<Cell> cells;
  auto plan = [&cells](std::string scenario, std::function<Row()> task) {
    cells.push_back(Cell{std::move(scenario), std::move(task), Row{}});
  };
  plan("fault-free", [seed] { return run_lw_row(seed, false); });
  plan("5/16 Byzantine", [seed] { return run_lw_row(seed, true); });
  // The shape checks below reuse table cells instead of re-simulating them;
  // remember the relevant indices while planning.
  std::size_t idx_trix_small = 0, idx_trix_big = 0, idx_grad_small = 0, idx_grad_big = 0;
  std::size_t idx_hex16_crash = cells.size();  // sentinel: not planned yet
  for (const std::uint32_t columns : sizes) {
    for (const bool crash : {false, true}) {
      const char* scenario = crash ? "1 crash" : "fault-free";
      plan(scenario, [columns, crash, seed] { return run_gcs_row(columns, crash, seed); });
      plan(scenario, [columns, crash, seed] { return run_hex_row(columns, crash, seed); });
      if (crash && columns == 16) idx_hex16_crash = cells.size() - 1;
      plan(scenario, [columns, crash, seed] {
        return run_trix(columns, crash, center_split_delays(columns), seed);
      });
      if (!crash && columns == sizes.front()) idx_trix_small = cells.size() - 1;
      if (!crash && columns == sizes.back()) idx_trix_big = cells.size() - 1;
      plan(scenario, [columns, crash, seed] {
        return run_gradient(columns, crash, center_split_delays(columns), seed);
      });
      if (!crash && columns == sizes.front()) idx_grad_small = cells.size() - 1;
      if (!crash && columns == sizes.back()) idx_grad_big = cells.size() - 1;
    }
  }
  // Cells that only the shape checks need ride along in the same fan-out.
  const std::size_t shape_base = cells.size();
  GTRIX_CHECK_MSG(idx_hex16_crash < shape_base, "size list must include 16");
  const std::size_t idx_grad16_random = cells.size();
  plan("shape", [seed] {
    return run_gradient(16, true, ComponentSpec::of("uniform-random"), seed);
  });

  parallel_for_index(cells.size(), threads,
                     [&](std::size_t i) { cells[i].row = cells[i].task(); });

  Table table({"method", "scenario", "D", "local skew", "global skew", "paper bound"});
  for (std::size_t i = 0; i < shape_base; ++i) {
    const Cell& cell = cells[i];
    table.row().add(cell.row.method).add(cell.scenario);
    table.add(static_cast<std::uint64_t>(cell.row.diameter));
    table.add(cell.row.local, 1);
    if (cell.row.method == "HEX") {
      table.add("-");
    } else {
      table.add(cell.row.global, 1);
    }
    table.add(cell.row.paper_bound);
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("shape checks (paper Table 1):\n");
  const Row& trix_small = cells[idx_trix_small].row;
  const Row& trix_big = cells[idx_trix_big].row;
  const Row& grad_small = cells[idx_grad_small].row;
  const Row& grad_big = cells[idx_grad_big].row;
  std::printf("  TRIX local skew growth  D=%u -> D=%u : %.1f -> %.1f (x%.2f; linear in D)\n",
              trix_small.diameter, trix_big.diameter, trix_small.local, trix_big.local,
              trix_big.local / trix_small.local);
  std::printf("  GTRIX local skew growth D=%u -> D=%u : %.1f -> %.1f (x%.2f; ~log D)\n",
              grad_small.diameter, grad_big.diameter, grad_small.local, grad_big.local,
              grad_big.local / grad_small.local);
  const Row& hex_crash = cells[idx_hex16_crash].row;
  const Row& grad_crash = cells[idx_grad16_random].row;
  std::printf("  crash cost at D=15: HEX %.1f (~d=1000) vs GradientTRIX %.1f (~kappa)\n",
              hex_crash.local, grad_crash.local);
  return 0;
}

}  // namespace
}  // namespace gtrix

int main(int argc, char** argv) { return gtrix::run(argc, argv); }
