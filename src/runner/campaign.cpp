#include "runner/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "ckpt/codec.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "runner/sweep.hpp"
#include "support/stats.hpp"

namespace gtrix {

Json skew_to_json(const SkewReport& skew) {
  Json j = Json::object();
  j.set("max_intra", skew.max_intra);
  j.set("max_inter", skew.max_inter);
  j.set("local", skew.local_skew);
  j.set("global", skew.global_skew);
  j.set("sigma_lo", skew.sigma_lo);
  j.set("sigma_hi", skew.sigma_hi);
  j.set("pairs_checked", skew.pairs_checked);
  j.set("pairs_skipped", skew.pairs_skipped);
  Json by_layer = Json::array();
  for (const double v : skew.intra_by_layer) by_layer.push_back(v);
  j.set("intra_by_layer", std::move(by_layer));
  Json dev = Json::object();
  dev.set("samples", skew.deviations.count);
  // Same empty-set convention as the summary percentiles: null, never a
  // fake 0.0 that reads as a genuine zero-skew measurement.
  const bool has = skew.deviations.count > 0;
  dev.set("mean", has ? Json(skew.deviations.mean) : Json());
  dev.set("p50", has ? Json(skew.deviations.p50) : Json());
  dev.set("p90", has ? Json(skew.deviations.p90) : Json());
  dev.set("p99", has ? Json(skew.deviations.p99) : Json());
  j.set("deviations", std::move(dev));
  return j;
}

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// What a cell's artifacts are produced under: its config and corruption
/// plan. Done files and snapshot metas carry it, and a resume refuses an
/// artifact whose fingerprint differs from the cell's.
Json cell_fingerprint(const ExperimentConfig& config, const CorruptPlan& corrupt) {
  Json j = Json::object();
  j.set("config", to_json(config));
  j.set("corrupt", corrupt.enabled ? to_json(corrupt) : Json());
  return j;
}

struct Artifact {
  CkptFile file;
  Json meta;  ///< the header's runner metadata
};

/// Opens a resume artifact -- a snapshot or a done file, both checkpoint
/// containers -- and checks its header's format and the cell fingerprint
/// in its meta.
Artifact open_artifact(const std::string& path, const char* format, const Json& fingerprint) {
  CkptFile file = CkptFile::parse(ckpt_read_file(path), path);
  Json meta;
  try {
    const Json header = Json::parse(file.header_json());
    if (!(header.at("format") == Json(format))) {
      throw CkptError(path + ": not a " + format + " file (format is " +
                      header.at("format").dump() + ")");
    }
    meta = header.at("meta");
    if (!(meta.at("fingerprint") == fingerprint)) {
      throw CkptError(path + ": written for a different config or corruption plan than this "
                      "cell's (a resume never reuses results or state across edits; delete it "
                      "or run without --resume)");
    }
  } catch (const JsonError& e) {
    throw CkptError(path + ": header carries no usable runner metadata (" + e.what() + ")");
  }
  return {std::move(file), std::move(meta)};
}

Json counters_to_json(const ExperimentCounters& counters) {
  Json j = Json::object();
  j.set("iterations", counters.iterations);
  j.set("late_broadcasts", counters.late_broadcasts);
  j.set("guard_aborts", counters.guard_aborts);
  j.set("watchdog_resets", counters.watchdog_resets);
  j.set("timeout_branches", counters.timeout_branches);
  j.set("duplicate_drops", counters.duplicate_drops);
  // Logical events, not raw executed events: the raw count is engine-
  // dependent, the logical one invariant across every shard count, which
  // keeps the JSONL byte-identical across (threads, shards) -- the CI
  // determinism diffs rely on it.
  j.set("logical_events", counters.logical_events());
  j.set("messages_sent", counters.messages_sent);
  j.set("messages_delivered", counters.messages_delivered);
  return j;
}

Json percentiles_to_json(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  double sum = 0.0;
  for (const double v : values) sum += v;
  // An empty sample set used to report 0.0 everywhere, indistinguishable
  // from a genuine zero-skew run. Emit the sample count plus JSON null for
  // every percentile instead; consumers key off "samples".
  const auto q = [&](double p) {
    return values.empty() ? Json() : Json(quantile_sorted(values, p));
  };
  Json j = Json::object();
  j.set("samples", static_cast<std::int64_t>(values.size()));
  j.set("min", q(0.0));
  j.set("mean", values.empty() ? Json()
                               : Json(sum / static_cast<double>(values.size())));
  j.set("p50", q(0.50));
  j.set("p90", q(0.90));
  j.set("p95", q(0.95));
  j.set("max", q(1.0));
  return j;
}

}  // namespace

ExperimentResult measure_cell(World& world, const ExperimentConfig& config,
                              const CorruptPlan& corrupt) {
  ExperimentResult result;
  result.counters = world.counters();
  result.diameter = world.grid().base().diameter();
  result.thm11_bound = config.params.thm11_bound(result.diameter);
  result.global_bound = config.params.global_skew_bound(result.diameter);
  if (corrupt.enabled) {
    result.realign = world.realign_labels();
    // Measure after the recovery budget (one layer per wave plus slack), not
    // over the corruption transient itself -- the scenario's claim is about
    // the post-stabilization skew.
    const auto [lo, hi] = default_window(world.recorder());
    const Sigma recovered =
        static_cast<Sigma>(corrupt.wave) + static_cast<Sigma>(config.layers) + 6;
    if (recovered > hi) {
      throw std::runtime_error(
          "corrupt scenario leaves no post-recovery measurement window: "
          "recovery budget ends at wave " + std::to_string(recovered) +
          " but the run's window ends at wave " + std::to_string(hi) +
          " -- increase 'pulses' (need roughly corrupt.wave + layers + warmup + 10)");
    }

    // Recovery-time scan (Theorems 1.2/1.3): worst local deviation per wave
    // from the injection on, against the steady-state bound. Scanning stops
    // two waves past the recovery budget -- the scan's answer is "when did
    // the series re-enter the bound for good", and waves beyond the budget
    // are already covered by the post-recovery skew window. One replay of
    // the realigned trace measures both.
    const Sigma scan_lo = static_cast<Sigma>(corrupt.wave);
    const Sigma scan_hi = std::min(hi, recovered + 2);
    SkewReplay replay = replay_skew(world.trace(), std::max(lo, recovered), hi, scan_lo, scan_hi);
    result.skew = std::move(replay.skew);
    RecoveryReport& rec = result.recovery;
    rec.enabled = true;
    rec.corrupt_wave = scan_lo;
    rec.scan_hi = scan_hi;
    rec.threshold = result.thm11_bound;
    rec.local_by_wave = std::move(replay.local_by_wave);
    Sigma last_violation = scan_lo - 1;
    for (std::size_t i = 0; i < rec.local_by_wave.size(); ++i) {
      const double v = rec.local_by_wave[i];
      if (!std::isnan(v) && v > rec.threshold) {
        last_violation = scan_lo + static_cast<Sigma>(i);
      }
    }
    rec.recovered = last_violation < scan_hi;  // still out at scan end -> not recovered
    rec.recovered_wave = last_violation + 1;
  } else {
    result.skew = world.skew();
  }
  result.engine_stats = world.engine_stats();
  return result;
}

std::string cell_key(std::size_t index, const std::string& label) {
  char idx[32];
  std::snprintf(idx, sizeof(idx), "%05zu", index);
  std::string sanitized;
  for (const char ch : label) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '.' || ch == '_' || ch == '-';
    sanitized.push_back(ok ? ch : '_');
    if (sanitized.size() >= 80) break;
  }
  return std::string("cell-") + idx + "-" + sanitized;
}

ExperimentResult run_cell(World& world, const CorruptPlan& corrupt, CellObs obs,
                          const CheckpointOptions& ckpt, const std::string& key) {
  const ExperimentConfig& config = world.config();
  // Phase spans land on (cell pid, tid 0); sharded window spans nest inside
  // them on the per-shard tids. Null trace -> zero added work.
  TraceCollector* trace = world.engine().telemetry ? obs.trace : nullptr;
  const auto phase_span = [&](const char* name, auto&& body) {
    if (trace == nullptr) {
      body();
      return;
    }
    const double t0 = trace->now_us();
    body();
    trace->add_complete(obs.trace_pid, 0, name, t0, trace->now_us() - t0);
  };

  // Corrupt cells honor the configured recording mode. Under streaming
  // recording the corruption anchor keeps every pulse time, so
  // realignment, the post-recovery skew window and the recovery-time scan
  // read what full recording would (docs/scaling.md, "Realignment at
  // scale"). Config-derived, so it is set identically on fresh and resumed
  // runs -- BEFORE restore, which replays the pulse trace the snapshotted
  // run had recorded.
  if (corrupt.enabled) world.set_corruption_anchor(corrupt.wave);
  world.set_trace(trace, obs.trace_pid);
  // The shard driver names every shard's tid; on the serial engine nothing
  // else names tid 0, so give it the label shard 0 would get.
  if (trace != nullptr && world.shard_count() <= 1) {
    trace->set_thread_name(obs.trace_pid, 0, "shard 0");
  }

  const bool snapshots = !ckpt.dir.empty();
  const std::string ckpt_path = ckpt.dir + "/" + key + ".ckpt";
  const Json fingerprint = snapshots ? cell_fingerprint(config, corrupt) : Json();
  std::uint64_t written = 0, bytes_written = 0, restored = 0;
  double write_seconds = 0.0, restore_seconds = 0.0;

  // chunk = completed sim-time chunks of length `every`; phase = 0 before
  // the corruption boundary (always 0 for non-corrupt cells), 1 after. Both
  // ride in the snapshot header's meta block so a resume re-enters the
  // chunk loop exactly where the killed run left it. Boundaries are
  // computed as every * (chunk + 1) -- an exact product, never an
  // accumulated float sum -- so the original and the resumed run stop at
  // bit-identical deadlines.
  std::uint64_t chunk = 0;
  std::uint8_t phase = 0;

  if (snapshots && ckpt.resume && std::filesystem::exists(ckpt_path)) {
    const auto t0 = std::chrono::steady_clock::now();
    const Artifact snapshot = open_artifact(ckpt_path, "gtrix-checkpoint", fingerprint);
    try {
      chunk = snapshot.meta.at("chunk").as_u64();
      phase = static_cast<std::uint8_t>(snapshot.meta.at("phase").as_u64());
    } catch (const JsonError& e) {
      throw CkptError(ckpt_path + ": header carries no usable runner metadata (" + e.what() +
                      ")");
    }
    world.checkpoint_restore(snapshot.file);
    restored = 1;
    restore_seconds += seconds_since(t0);
  }

  const auto save = [&](double t_now) {
    if (!snapshots) return;
    Json meta = Json::object();
    meta.set("t", t_now);
    meta.set("phase", phase);
    meta.set("chunk", static_cast<std::int64_t>(chunk));
    meta.set("cell", key);
    meta.set("fingerprint", fingerprint);
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<std::uint8_t> image = world.checkpoint_save(meta.dump());
    ckpt_write_file_atomic(ckpt_path, image);
    ++written;
    bytes_written += image.size();
    write_seconds += seconds_since(t0);
  };

  // Seeded from the cell seed alone. The committed BENCH_*.json of the
  // corrupt scenarios depend on this stream, so the derivation is fixed.
  // It is only ever drawn from at the corruption boundary, so
  // reconstructing it fresh on a post-corrupt resume (phase == 1) is exact.
  Rng rng(config.seed ^ 0xFEED);
  const double corrupt_t = corrupt.wave * config.params.lambda;
  const double every = snapshots ? ckpt.every : 0.0;
  const double inf = std::numeric_limits<double>::infinity();

  while (!world.idle() || (corrupt.enabled && phase == 0)) {
    const char* span = phase == 0 ? "run" : "recover";
    const double boundary = every > 0.0 ? every * static_cast<double>(chunk + 1) : inf;
    if (corrupt.enabled && phase == 0 && corrupt_t <= boundary) {
      phase_span("run", [&] { world.run_until(corrupt_t); });
      phase_span("corrupt", [&] { world.corrupt_fraction(corrupt.fraction, rng); });
      phase = 1;
      save(corrupt_t);
      continue;
    }
    if (boundary == inf) {
      phase_span(span, [&] { world.run_to_completion(); });
      break;
    }
    phase_span(span, [&] { world.run_until(boundary); });
    ++chunk;
    if (!world.idle()) save(boundary);
  }

  ExperimentResult result;
  if (corrupt.enabled) {
    phase_span("realign", [&] { result = measure_cell(world, config, corrupt); });
  } else {
    result = measure_cell(world, config, corrupt);
  }
  result.engine_stats.checkpoints_written += written;
  result.engine_stats.checkpoint_bytes += bytes_written;
  result.engine_stats.checkpoints_restored += restored;
  result.engine_stats.checkpoint_write_seconds += write_seconds;
  result.engine_stats.checkpoint_restore_seconds += restore_seconds;
  return result;
}

ExperimentResult run_cell(const ExperimentConfig& config, const CorruptPlan& corrupt,
                          EngineOptions engine, CellObs obs, const CheckpointOptions& ckpt,
                          std::size_t index, const std::string& label) {
  if (ckpt.dir.empty()) {
    World world(config, engine);
    return run_cell(world, corrupt, obs);
  }
  const std::string key = cell_key(index, label);
  const std::string done_path = ckpt.dir + "/" + key + ".done";
  const Json fingerprint = cell_fingerprint(config, corrupt);
  // Completed cells are NEVER re-run on resume: reloading the done file
  // regenerates the identical JSONL line at zero simulation cost.
  if (ckpt.resume && std::filesystem::exists(done_path)) {
    const Artifact done = open_artifact(done_path, "gtrix-cell-done", fingerprint);
    ExperimentResult result;
    done.file.read_section("result", [&](CkptIo& io) { result.checkpoint(io); });
    result.engine_stats.cells_resumed_done += 1;
    return result;
  }
  World world(config, engine);
  ExperimentResult result = run_cell(world, corrupt, obs, ckpt, key);
  // The done file is the completion marker: written atomically AFTER the
  // result exists, so a kill at any earlier instant leaves either no file
  // or a complete one -- never a torn marker that would wrongly skip a
  // half-run cell on resume.
  Json meta = Json::object();
  meta.set("cell", key);
  meta.set("label", label);
  meta.set("index", static_cast<std::int64_t>(index));
  meta.set("fingerprint", fingerprint);
  Json header = Json::object();
  header.set("format", "gtrix-cell-done");
  header.set("version", kCkptFormatVersion);
  header.set("meta", std::move(meta));
  CkptWriter w;
  w.write_section("result", [&](CkptIo& io) { result.checkpoint(io); });
  ckpt_write_file_atomic(done_path, w.finish(header.dump()));
  return result;
}

CampaignResult run_campaign(const Scenario& scenario, const CampaignOptions& options) {
  const auto started = std::chrono::steady_clock::now();

  CampaignResult campaign;
  campaign.scenario = scenario.name();

  std::vector<ScenarioCell> cells = scenario.cells();
  const ComponentSpec canonical_override =
      options.recording_override.empty()
          ? ComponentSpec{}
          : recording_registry().canonicalize(options.recording_override);
  campaign.cells.reserve(cells.size());
  for (ScenarioCell& cell : cells) {
    // Every cell -- corrupt or not -- runs the mode its config says (a
    // corrupt streaming cell keeps its pulse trace for realignment). The
    // JSONL therefore always describes the mode that ran.
    if (!canonical_override.empty()) cell.config.recording_spec = canonical_override;
    campaign.cells.push_back(
        CampaignCell{std::move(cell.label), std::move(cell.config), cell.corrupt, {}});
  }
  const std::size_t n = campaign.cells.size();

  // parallel_for_index never spawns more workers than there is work.
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  campaign.threads_used = static_cast<unsigned>(std::min<std::size_t>(
      options.threads != 0 ? options.threads : hardware, std::max<std::size_t>(1, n)));
  // Nested-parallelism budget: sweep workers x shard threads stays within
  // hardware concurrency. Shard counts are behaviour-neutral (bit-identical
  // results), so clamping only changes the thread layout, never the output.
  const std::uint32_t requested_shards =
      options.shards != 0 ? options.shards : scenario.engine_shards();
  campaign.shards_used = std::max<std::uint32_t>(
      1, std::min<std::uint32_t>(requested_shards, hardware / campaign.threads_used));
  EngineOptions engine;
  engine.shards = campaign.shards_used;
  engine.telemetry = options.telemetry || options.trace != nullptr;

  TraceCollector* trace = engine.telemetry ? options.trace : nullptr;
  if (trace != nullptr) {
    trace->set_process_name(1, "campaign " + campaign.scenario);
    for (std::size_t i = 0; i < n; ++i) {
      trace->set_process_name(options.trace_pid_base + static_cast<std::uint32_t>(i),
                              campaign.scenario + "/" + campaign.cells[i].label);
    }
  }
  if (!options.checkpoint.dir.empty()) {
    std::filesystem::create_directories(options.checkpoint.dir);
  }
  std::unique_ptr<ProgressMeter> progress;
  if (options.progress_seconds > 0.0) {
    progress = std::make_unique<ProgressMeter>(campaign.scenario, n, options.progress_seconds);
  }

  parallel_for_index(n, campaign.threads_used, [&](std::size_t i) {
    CampaignCell& cell = campaign.cells[i];
    CellObs obs;
    if (trace != nullptr) {
      obs.trace = trace;
      obs.trace_pid = options.trace_pid_base + static_cast<std::uint32_t>(i);
    }
    const double t0 = trace != nullptr ? trace->now_us() : 0.0;
    cell.result = run_cell(cell.config, cell.corrupt, engine, obs, options.checkpoint, i,
                           cell.label);
    const std::uint64_t logical = cell.result.counters.logical_events();
    if (trace != nullptr) {
      trace->add_complete(1, trace->tid_for_current_thread(), cell.label, t0,
                          trace->now_us() - t0, static_cast<std::int64_t>(logical));
    }
    if (progress) progress->cell_done(logical);
  });

  campaign.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  return campaign;
}

std::string campaign_jsonl(const CampaignResult& result) {
  std::string out;
  for (const CampaignCell& cell : result.cells) {
    Json line = Json::object();
    line.set("scenario", result.scenario);
    line.set("cell", cell.label);
    line.set("config", to_json(cell.config));
    if (cell.corrupt.enabled) line.set("corrupt", to_json(cell.corrupt));
    Json res = Json::object();
    res.set("diameter", cell.result.diameter);
    res.set("skew", skew_to_json(cell.result.skew));
    Json bounds = Json::object();
    bounds.set("thm11", cell.result.thm11_bound);
    bounds.set("global", cell.result.global_bound);
    res.set("bounds", std::move(bounds));
    res.set("counters", counters_to_json(cell.result.counters));
    if (cell.result.recovery.enabled) {
      Json realign = Json::object();
      realign.set("nodes_shifted",
                  static_cast<std::int64_t>(cell.result.realign.nodes_shifted));
      realign.set("max_abs_shift", cell.result.realign.max_abs_shift);
      res.set("realign", std::move(realign));
      const RecoveryReport& rec = cell.result.recovery;
      Json recovery = Json::object();
      recovery.set("corrupt_wave", static_cast<std::int64_t>(rec.corrupt_wave));
      recovery.set("scan_hi", static_cast<std::int64_t>(rec.scan_hi));
      recovery.set("threshold", rec.threshold);
      recovery.set("recovered", rec.recovered);
      // null when the cell never stabilized inside the scan -- a consumer
      // must not mistake "no recovery" for "recovered at wave 0".
      recovery.set("recovered_wave", rec.recovered
                                         ? Json(static_cast<std::int64_t>(rec.recovered_wave))
                                         : Json());
      Json series = Json::array();
      for (const double v : rec.local_by_wave) {
        series.push_back(std::isnan(v) ? Json() : Json(v));  // NaN = no readable pair
      }
      recovery.set("local_by_wave", std::move(series));
      res.set("recovery", std::move(recovery));
    }
    // Engine-invariant telemetry only: the JSONL must stay byte-identical
    // across (threads, shards), so the engine-shaped counters and all
    // wall-clock data live in the summary instead.
    if (cell.result.engine_stats.enabled) {
      res.set("engine_stats", cell.result.engine_stats.invariant_json());
    }
    line.set("result", std::move(res));
    out += line.dump();
    out += '\n';
  }
  return out;
}

Json campaign_summary(const CampaignResult& result) {
  std::vector<double> local, global;
  ExperimentCounters totals;
  EngineStats engine_totals;
  std::int64_t within_thm11 = 0;
  for (const CampaignCell& cell : result.cells) {
    engine_totals.merge(cell.result.engine_stats);
    local.push_back(cell.result.skew.max_intra);
    global.push_back(cell.result.skew.global_skew);
    if (cell.result.skew.max_intra <= cell.result.thm11_bound) ++within_thm11;
    totals.iterations += cell.result.counters.iterations;
    totals.late_broadcasts += cell.result.counters.late_broadcasts;
    totals.guard_aborts += cell.result.counters.guard_aborts;
    totals.watchdog_resets += cell.result.counters.watchdog_resets;
    totals.timeout_branches += cell.result.counters.timeout_branches;
    totals.duplicate_drops += cell.result.counters.duplicate_drops;
    totals.events_executed += cell.result.counters.events_executed;
    totals.delivery_events += cell.result.counters.delivery_events;
    totals.messages_sent += cell.result.counters.messages_sent;
    totals.messages_delivered += cell.result.counters.messages_delivered;
  }

  Json j = Json::object();
  j.set("scenario", result.scenario);
  j.set("cells", static_cast<std::int64_t>(result.cells.size()));
  j.set("local_skew", percentiles_to_json(std::move(local)));
  j.set("global_skew", percentiles_to_json(std::move(global)));
  j.set("cells_within_thm11_bound", within_thm11);
  j.set("counters", counters_to_json(totals));
  j.set("threads", result.threads_used);
  j.set("shards", result.shards_used);
  j.set("wall_seconds", result.wall_seconds);
  // Merged engine telemetry (engine-shaped + wall-clock); summary-only by
  // design -- this file already holds the non-portable wall_seconds.
  if (engine_totals.enabled) j.set("engine_stats", engine_totals.summary_json());
  return j;
}

}  // namespace gtrix
