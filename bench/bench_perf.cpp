// bench_perf: the telemetry-overhead and checkpoint-cost gates, each with a
// bit-identity check on every cell's skew output.
//
// Modes (exactly one):
//   --telemetry-gate=TOL   telemetry on vs off on the gate scenario; fails
//              (exit 1) when enabling telemetry costs more than TOL or
//              changes any result.
//   --checkpoint-gate=BUDGET  plain vs snapshotting vs restored passes;
//              fails when the mean per-snapshot write or restore cost
//              exceeds BUDGET seconds or any path diverges.
//
// Absolute per-layer host cost is measured by hostbench/ (python3
// hostbench/run.py); result identity is guarded by the committed
// BENCH_*.json summaries (tests/golden_summary_test.py).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "runner/perf.hpp"
#include "scenario/registry.hpp"
#include "support/flags.hpp"

namespace gtrix {
namespace {

// Both gates anchor on table1-comparison: a ~0.5 s workload, far less
// noise-prone than gating on the ~6 ms quickstart-grid cells.
constexpr const char* kGateScenario = "table1-comparison";

void write_file(const std::filesystem::path& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  out << contents;
  if (!out.flush()) throw std::runtime_error("short write to " + path.string());
}

int run(int argc, char** argv) {
  Usage usage("bench_perf",
              "Telemetry-overhead and checkpoint-cost gates, with a bit-identity check.");
  usage.flag("--repeats=N", "timing repeats per cell (best run counts; default 5)");
  usage.flag("--scenario=NAME", "gate on this built-in scenario instead of " +
                                    std::string(kGateScenario));
  usage.flag("--out=FILE", "also write the report JSON to FILE");
  usage.flag("--telemetry-gate=TOL",
             "run ONLY the telemetry on/off overhead comparison on the gate "
             "scenario and fail if overhead exceeds TOL (e.g. 0.05); results "
             "must stay bit-identical");
  usage.flag("--checkpoint-gate=BUDGET",
             "run ONLY the checkpointing comparison (plain vs snapshotting, "
             "plus a restore pass) on the gate scenario and fail if the mean "
             "per-snapshot write or restore cost exceeds BUDGET seconds; all "
             "three paths must stay bit-identical");
  usage.flag("--checkpoint-every=T",
             "snapshot interval for --checkpoint-gate (simulated time; "
             "default 4000 = two nominal waves)");
  usage.flag("--help", "show this help");
  const Flags flags(argc, argv, {"help"});
  if (flags.get_bool("help", false)) {
    std::fputs(usage.str().c_str(), stdout);
    return 0;
  }
  for (const std::string& name : flags.names()) {
    const auto known = usage.flag_names();
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::fprintf(stderr, "unknown flag --%s (see --help)\n", name.c_str());
      return 2;
    }
  }

  const int repeats = static_cast<int>(flags.get_int("repeats", 5));

  if (flags.has("telemetry-gate")) {
    const double tolerance = flags.get_double("telemetry-gate", 0.05);
    const std::string name = flags.get_string("scenario", kGateScenario);
    std::fprintf(stderr, "telemetry overhead on %s (%d repeats, on vs off)...\n",
                 name.c_str(), repeats);
    const TelemetryOverheadReport report =
        run_telemetry_overhead(builtin_scenario(name), repeats);
    const Json doc = telemetry_overhead_json(report);
    std::fputs((doc.dump(2) + "\n").c_str(), stdout);
    if (flags.has("out")) write_file(flags.get_string("out", ""), doc.dump(2) + "\n");
    if (!report.skew_identical) {
      std::fprintf(stderr, "FAIL: telemetry changed skew results -- it must be "
                           "purely observational\n");
      return 1;
    }
    if (report.overhead > tolerance) {
      std::fprintf(stderr,
                   "FAIL: telemetry overhead %.1f%% exceeds %.1f%% tolerance "
                   "(%.3fs on vs %.3fs off)\n",
                   report.overhead * 100.0, tolerance * 100.0, report.on_wall_seconds,
                   report.off_wall_seconds);
      return 1;
    }
    std::fprintf(stderr, "telemetry gate OK: %.1f%% overhead <= %.1f%% (%.3fs on, %.3fs off)\n",
                 report.overhead * 100.0, tolerance * 100.0, report.on_wall_seconds,
                 report.off_wall_seconds);
    return 0;
  }

  if (flags.has("checkpoint-gate")) {
    // The gate budgets the MEAN PER-SNAPSHOT cost, not overhead relative to
    // the plain run: the CI scenarios burn huge simulated time per
    // wall-second, so any relative figure is dominated by the snapshot
    // cadence, not by how cheap a snapshot is. Relative overhead, size and
    // count are still reported for the trajectory.
    const double budget = flags.get_double("checkpoint-gate", 0.025);
    const double every = flags.get_double("checkpoint-every", 4000.0);
    const std::string name = flags.get_string("scenario", kGateScenario);
    const std::string scratch =
        (std::filesystem::temp_directory_path() / "gtrix-bench-ckpt-gate").string();
    std::fprintf(stderr,
                 "checkpoint cost on %s (%d repeats, plain vs snapshots every "
                 "%g sim-time, then a restore pass)...\n",
                 name.c_str(), repeats, every);
    const CheckpointOverheadReport report =
        run_checkpoint_overhead(builtin_scenario(name), repeats, scratch, every);
    const Json doc = checkpoint_overhead_json(report);
    std::fputs((doc.dump(2) + "\n").c_str(), stdout);
    if (flags.has("out")) write_file(flags.get_string("out", ""), doc.dump(2) + "\n");
    if (!report.skew_identical) {
      std::fprintf(stderr, "FAIL: checkpointed or resumed cells diverged from the "
                           "plain run -- snapshots must be exact\n");
      return 1;
    }
    if (report.checkpoints_written == 0 || report.checkpoints_restored == 0) {
      std::fprintf(stderr, "FAIL: the gate wrote %llu and restored %llu snapshots "
                           "(interval %g longer than every cell?) -- nothing was "
                           "measured\n",
                   static_cast<unsigned long long>(report.checkpoints_written),
                   static_cast<unsigned long long>(report.checkpoints_restored), every);
      return 1;
    }
    const double write_each = report.checkpoint_write_seconds /
                              static_cast<double>(report.checkpoints_written);
    const double restore_each = report.checkpoint_restore_seconds /
                                static_cast<double>(report.checkpoints_restored);
    if (write_each > budget || restore_each > budget) {
      std::fprintf(stderr,
                   "FAIL: per-snapshot cost exceeds the %.1f ms budget: "
                   "%.2f ms/write (%llu snapshots, %.1f KiB total), "
                   "%.2f ms/restore (%llu restores)\n",
                   budget * 1e3, write_each * 1e3,
                   static_cast<unsigned long long>(report.checkpoints_written),
                   static_cast<double>(report.checkpoint_bytes) / 1024.0,
                   restore_each * 1e3,
                   static_cast<unsigned long long>(report.checkpoints_restored));
      return 1;
    }
    std::fprintf(stderr,
                 "checkpoint gate OK: %.2f ms/write, %.2f ms/restore <= %.1f ms "
                 "budget (%llu snapshots, %.1f KiB; overhead vs plain %.0f%% at "
                 "every=%g)\n",
                 write_each * 1e3, restore_each * 1e3, budget * 1e3,
                 static_cast<unsigned long long>(report.checkpoints_written),
                 static_cast<double>(report.checkpoint_bytes) / 1024.0,
                 report.overhead * 100.0, every);
    return 0;
  }

  std::fputs(usage.str().c_str(), stderr);
  std::fputs("\nerror: choose --telemetry-gate=TOL or --checkpoint-gate=BUDGET\n", stderr);
  return 2;
}

}  // namespace
}  // namespace gtrix

int main(int argc, char** argv) {
  try {
    return gtrix::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_perf: %s\n", e.what());
    return 1;
  }
}
