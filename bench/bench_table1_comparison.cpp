// Experiment E1 (Table 1): the baselines no registry algorithm runs.
//
// The paper's Table 1 compares HEX, TRIX and Gradient TRIX on skew and
// resilience. The Gradient TRIX and naive TRIX rows are the builtin
// scenario `table1-comparison` (gtrix_campaign). This harness prints the
// rows the registry cannot express: Lynch-Welch on the complete graph, the
// continuous GCS baseline and HEX, fault-free and with one crash fault, on
// the same grid sizes. The shape to look for: HEX pays ~d after a crash,
// GCS's local skew grows only ~log D.
#include <cstdio>
#include <functional>
#include <vector>

#include "baseline/hex.hpp"
#include "baseline/lynch_welch.hpp"
#include "gcs/gcs.hpp"
#include "runner/sweep.hpp"
#include "support/flags.hpp"
#include "support/table.hpp"

namespace gtrix {
namespace {

struct Row {
  std::string method;
  std::uint32_t diameter = 0;
  double local = 0.0;
  double global = 0.0;
  std::string paper_bound;
};

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
  const auto seed = flags.get_u64("seed", 1);
  const auto threads = static_cast<unsigned>(flags.get_int("threads", 0));

  std::printf("== Table 1: baselines outside the registry (measured skews) ==\n");
  std::printf("   'crash' adds one crash fault mid-grid. Time unit: d = 1000.\n");
  std::printf("   Gradient TRIX and TRIX rows: gtrix_campaign table1-comparison.\n\n");

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
  for (const std::uint32_t columns : {8u, 16u, 32u}) {
    for (const bool crash : {false, true}) {
      const char* scenario = crash ? "1 crash" : "fault-free";
      plan(scenario, [columns, crash, seed] { return run_gcs_row(columns, crash, seed); });
      plan(scenario, [columns, crash, seed] { return run_hex_row(columns, crash, seed); });
    }
  }

  parallel_for_index(cells.size(), threads,
                     [&](std::size_t i) { cells[i].row = cells[i].task(); });

  Table table({"method", "scenario", "D", "local skew", "global skew", "paper bound"});
  for (const Cell& cell : cells) {
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
  return 0;
}

}  // namespace
}  // namespace gtrix

int main(int argc, char** argv) { return gtrix::run(argc, argv); }
