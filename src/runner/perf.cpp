#include "runner/perf.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <vector>

#include "support/check.hpp"

namespace gtrix {

TelemetryOverheadReport run_telemetry_overhead(const Scenario& scenario, int repeats) {
  GTRIX_CHECK_MSG(repeats >= 1, "perf repeats must be >= 1");
  TelemetryOverheadReport report;
  report.scenario = scenario.name();
  report.repeats = repeats;
  const std::vector<ScenarioCell> cells = scenario.cells();
  report.cells = cells.size();

  EngineOptions on_engine;
  on_engine.telemetry = true;

  // Per-CELL best-of-repeats, not best whole pass: a scheduler hiccup on a
  // shared CI runner lands inside one cell of one pass, and the per-cell
  // minimum filters it out instead of polluting an entire pass's total.
  // The summed minima estimate "both modes on their best behaviour", which
  // is exactly the comparison an overhead gate needs.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> off_best(cells.size(), kInf);
  std::vector<double> on_best(cells.size(), kInf);
  std::vector<std::string> off_digests;
  std::vector<std::string> on_digests;

  const auto timed_pass = [&](EngineOptions engine, std::vector<double>& best,
                              std::vector<std::string>& digests) {
    std::vector<std::string> pass_digests;
    pass_digests.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto started = std::chrono::steady_clock::now();
      const ExperimentResult result = run_cell(cells[i].config, cells[i].corrupt, engine);
      best[i] = std::min(
          best[i],
          std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
              .count());
      pass_digests.push_back(skew_to_json(result.skew).dump());
    }
    if (digests.empty()) {
      digests = std::move(pass_digests);
    } else {
      GTRIX_CHECK(pass_digests == digests);
    }
  };

  for (int r = 0; r < repeats; ++r) {
    // Alternate mode order per repeat.
    if (r % 2 == 0) {
      timed_pass(EngineOptions{}, off_best, off_digests);
      timed_pass(on_engine, on_best, on_digests);
    } else {
      timed_pass(on_engine, on_best, on_digests);
      timed_pass(EngineOptions{}, off_best, off_digests);
    }
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    report.off_wall_seconds += off_best[i];
    report.on_wall_seconds += on_best[i];
  }
  report.skew_identical = off_digests == on_digests;
  if (report.off_wall_seconds > 0.0) {
    report.overhead = report.on_wall_seconds / report.off_wall_seconds - 1.0;
  }
  return report;
}

Json telemetry_overhead_json(const TelemetryOverheadReport& report) {
  Json j = Json::object();
  j.set("scenario", report.scenario);
  j.set("cells", static_cast<std::int64_t>(report.cells));
  j.set("repeats", report.repeats);
  j.set("off_wall_seconds", report.off_wall_seconds);
  j.set("on_wall_seconds", report.on_wall_seconds);
  j.set("overhead", report.overhead);
  j.set("skew_identical", report.skew_identical);
  return j;
}

CheckpointOverheadReport run_checkpoint_overhead(const Scenario& scenario, int repeats,
                                                 const std::string& scratch_dir,
                                                 double every) {
  namespace fs = std::filesystem;
  GTRIX_CHECK_MSG(repeats >= 1, "perf repeats must be >= 1");
  GTRIX_CHECK_MSG(every > 0.0, "checkpoint interval must be positive");
  CheckpointOverheadReport report;
  report.scenario = scenario.name();
  report.repeats = repeats;
  report.every = every;
  const std::vector<ScenarioCell> cells = scenario.cells();
  report.cells = cells.size();

  fs::remove_all(scratch_dir);
  fs::create_directories(scratch_dir);
  CheckpointOptions ckpt;
  ckpt.dir = scratch_dir;
  ckpt.every = every;

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> plain_best(cells.size(), kInf);
  std::vector<double> ckpt_best(cells.size(), kInf);
  std::vector<std::string> plain_digests;
  std::vector<std::string> ckpt_digests;
  double best_write_seconds = kInf;

  const auto plain_pass = [&] {
    std::vector<std::string> digests;
    digests.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto started = std::chrono::steady_clock::now();
      const ExperimentResult result = run_cell(cells[i].config, cells[i].corrupt);
      plain_best[i] = std::min(
          plain_best[i],
          std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
              .count());
      digests.push_back(skew_to_json(result.skew).dump());
    }
    if (plain_digests.empty()) {
      plain_digests = std::move(digests);
    } else {
      GTRIX_CHECK(digests == plain_digests);
    }
  };
  const auto ckpt_pass = [&] {
    std::vector<std::string> digests;
    digests.reserve(cells.size());
    std::uint64_t written = 0;
    std::uint64_t bytes = 0;
    double write_seconds = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto started = std::chrono::steady_clock::now();
      const ExperimentResult result =
          run_cell(cells[i].config, cells[i].corrupt, {}, {}, ckpt, i, cells[i].label);
      ckpt_best[i] = std::min(
          ckpt_best[i],
          std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
              .count());
      written += result.engine_stats.checkpoints_written;
      bytes += result.engine_stats.checkpoint_bytes;
      write_seconds += result.engine_stats.checkpoint_write_seconds;
      digests.push_back(skew_to_json(result.skew).dump());
    }
    // Snapshot count and size are deterministic; only the timings vary.
    if (ckpt_digests.empty()) {
      ckpt_digests = std::move(digests);
      report.checkpoints_written = written;
      report.checkpoint_bytes = bytes;
    } else {
      GTRIX_CHECK(digests == ckpt_digests);
      GTRIX_CHECK(written == report.checkpoints_written);
      GTRIX_CHECK(bytes == report.checkpoint_bytes);
    }
    best_write_seconds = std::min(best_write_seconds, write_seconds);
  };

  for (int r = 0; r < repeats; ++r) {
    // Alternate mode order per repeat, like the telemetry comparison.
    if (r % 2 == 0) {
      plain_pass();
      ckpt_pass();
    } else {
      ckpt_pass();
      plain_pass();
    }
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    report.plain_wall_seconds += plain_best[i];
    report.ckpt_wall_seconds += ckpt_best[i];
  }
  report.checkpoint_write_seconds = best_write_seconds;
  if (report.plain_wall_seconds > 0.0) {
    report.overhead = report.ckpt_wall_seconds / report.plain_wall_seconds - 1.0;
  }

  // Resume pass: strip the done files so every cell actually restores from
  // its newest snapshot and re-runs the tail; the digests must still match.
  CheckpointOptions resume = ckpt;
  resume.resume = true;
  for (const auto& entry : fs::directory_iterator(scratch_dir)) {
    if (entry.path().extension() == ".done") fs::remove(entry.path());
  }
  std::vector<std::string> resumed_digests;
  resumed_digests.reserve(cells.size());
  const auto started = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ExperimentResult result =
        run_cell(cells[i].config, cells[i].corrupt, {}, {}, resume, i, cells[i].label);
    report.checkpoints_restored += result.engine_stats.checkpoints_restored;
    report.checkpoint_restore_seconds += result.engine_stats.checkpoint_restore_seconds;
    resumed_digests.push_back(skew_to_json(result.skew).dump());
  }
  report.restore_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();

  report.skew_identical =
      plain_digests == ckpt_digests && plain_digests == resumed_digests;
  fs::remove_all(scratch_dir);
  return report;
}

Json checkpoint_overhead_json(const CheckpointOverheadReport& report) {
  Json j = Json::object();
  j.set("scenario", report.scenario);
  j.set("cells", static_cast<std::int64_t>(report.cells));
  j.set("repeats", report.repeats);
  j.set("checkpoint_every", report.every);
  j.set("plain_wall_seconds", report.plain_wall_seconds);
  j.set("ckpt_wall_seconds", report.ckpt_wall_seconds);
  j.set("overhead", report.overhead);
  j.set("checkpoints_written", report.checkpoints_written);
  j.set("checkpoint_bytes", report.checkpoint_bytes);
  j.set("checkpoint_write_seconds", report.checkpoint_write_seconds);
  j.set("restore_wall_seconds", report.restore_wall_seconds);
  j.set("checkpoint_restore_seconds", report.checkpoint_restore_seconds);
  j.set("checkpoints_restored", report.checkpoints_restored);
  j.set("skew_identical", report.skew_identical);
  return j;
}

}  // namespace gtrix
