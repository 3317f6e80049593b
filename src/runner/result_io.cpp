#include "runner/result_io.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "ckpt/codec.hpp"
#include "obs/telemetry.hpp"

namespace gtrix {

namespace {

constexpr const char* kResultFormat = "gtrix-cell-result";
// v2: realign + recovery blocks (corruption-anchored realignment).
constexpr std::int64_t kResultVersion = 2;

Json doubles_to_json(const std::vector<double>& values) {
  Json a = Json::array();
  for (const double v : values) a.push_back(v);
  return a;
}

std::vector<double> doubles_from_json(const Json& a) {
  std::vector<double> out;
  out.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out.push_back(a[i].as_double());
  return out;
}

Json stats_to_json(const EngineStats& stats) {
  Json j = Json::object();
  j.set("enabled", stats.enabled);
  Json counters = Json::object();
  for (const ObsCounterInfo& info : obs_counter_catalog()) {
    counters.set(info.name, static_cast<std::int64_t>(stats.get(info.id)));
  }
  j.set("counters", std::move(counters));
  Json bins = Json::array();
  for (std::size_t i = 0; i < ObsHistogram::kBins; ++i) {
    bins.push_back(static_cast<std::int64_t>(stats.window_events.count(i)));
  }
  j.set("window_events", std::move(bins));
  Json shard_rows = Json::array();
  for (const EngineShardStats& s : stats.shards) {
    Json row = Json::object();
    row.set("windows", static_cast<std::int64_t>(s.windows));
    row.set("envelopes_drained", static_cast<std::int64_t>(s.envelopes_drained));
    row.set("busy_seconds", s.busy_seconds);
    row.set("barrier_wait_seconds", s.barrier_wait_seconds);
    shard_rows.push_back(std::move(row));
  }
  j.set("shards", std::move(shard_rows));
  j.set("run_wall_seconds", stats.run_wall_seconds);
  j.set("peak_rss_mb", stats.peak_rss_mb);
  Json ckpt = Json::object();
  ckpt.set("written", static_cast<std::int64_t>(stats.checkpoints_written));
  ckpt.set("bytes", static_cast<std::int64_t>(stats.checkpoint_bytes));
  ckpt.set("restored", static_cast<std::int64_t>(stats.checkpoints_restored));
  ckpt.set("cells_resumed_done", static_cast<std::int64_t>(stats.cells_resumed_done));
  ckpt.set("write_seconds", stats.checkpoint_write_seconds);
  ckpt.set("restore_seconds", stats.checkpoint_restore_seconds);
  j.set("checkpoint", std::move(ckpt));
  return j;
}

EngineStats stats_from_json(const Json& j) {
  EngineStats stats;
  stats.enabled = j.at("enabled").as_bool();
  const Json& counters = j.at("counters");
  for (const ObsCounterInfo& info : obs_counter_catalog()) {
    stats.set(info.id, counters.at(info.name).as_u64());
  }
  const Json& bins = j.at("window_events");
  for (std::size_t i = 0; i < ObsHistogram::kBins && i < bins.size(); ++i) {
    stats.window_events.set_count(i, bins[i].as_u64());
  }
  const Json& shard_rows = j.at("shards");
  stats.shards.resize(shard_rows.size());
  for (std::size_t s = 0; s < shard_rows.size(); ++s) {
    const Json& row = shard_rows[s];
    stats.shards[s].windows = row.at("windows").as_u64();
    stats.shards[s].envelopes_drained = row.at("envelopes_drained").as_u64();
    stats.shards[s].busy_seconds = row.at("busy_seconds").as_double();
    stats.shards[s].barrier_wait_seconds = row.at("barrier_wait_seconds").as_double();
  }
  stats.run_wall_seconds = j.at("run_wall_seconds").as_double();
  stats.peak_rss_mb = j.at("peak_rss_mb").as_double();
  const Json& ckpt = j.at("checkpoint");
  stats.checkpoints_written = ckpt.at("written").as_u64();
  stats.checkpoint_bytes = ckpt.at("bytes").as_u64();
  stats.checkpoints_restored = ckpt.at("restored").as_u64();
  stats.cells_resumed_done = ckpt.at("cells_resumed_done").as_u64();
  stats.checkpoint_write_seconds = ckpt.at("write_seconds").as_double();
  stats.checkpoint_restore_seconds = ckpt.at("restore_seconds").as_double();
  return stats;
}

}  // namespace

Json result_to_json(const ExperimentResult& result) {
  Json j = Json::object();
  j.set("format", kResultFormat);
  j.set("version", kResultVersion);

  const SkewReport& skew = result.skew;
  Json s = Json::object();
  s.set("intra_by_layer", doubles_to_json(skew.intra_by_layer));
  s.set("inter_by_layer", doubles_to_json(skew.inter_by_layer));
  s.set("spread_by_layer", doubles_to_json(skew.spread_by_layer));
  s.set("max_intra", skew.max_intra);
  s.set("max_inter", skew.max_inter);
  s.set("local_skew", skew.local_skew);
  s.set("global_skew", skew.global_skew);
  s.set("sigma_lo", skew.sigma_lo);
  s.set("sigma_hi", skew.sigma_hi);
  s.set("pairs_checked", static_cast<std::int64_t>(skew.pairs_checked));
  s.set("pairs_skipped", static_cast<std::int64_t>(skew.pairs_skipped));
  Json dev = Json::object();
  dev.set("count", static_cast<std::int64_t>(skew.deviations.count));
  dev.set("mean", skew.deviations.mean);
  dev.set("p50", skew.deviations.p50);
  dev.set("p90", skew.deviations.p90);
  dev.set("p99", skew.deviations.p99);
  dev.set("exact", skew.deviations.exact);
  s.set("deviations", std::move(dev));
  j.set("skew", std::move(s));

  const ExperimentCounters& c = result.counters;
  Json counters = Json::object();
  counters.set("iterations", static_cast<std::int64_t>(c.iterations));
  counters.set("late_broadcasts", static_cast<std::int64_t>(c.late_broadcasts));
  counters.set("guard_aborts", static_cast<std::int64_t>(c.guard_aborts));
  counters.set("watchdog_resets", static_cast<std::int64_t>(c.watchdog_resets));
  counters.set("timeout_branches", static_cast<std::int64_t>(c.timeout_branches));
  counters.set("duplicate_drops", static_cast<std::int64_t>(c.duplicate_drops));
  counters.set("events_executed", static_cast<std::int64_t>(c.events_executed));
  counters.set("messages_sent", static_cast<std::int64_t>(c.messages_sent));
  counters.set("messages_delivered", static_cast<std::int64_t>(c.messages_delivered));
  counters.set("delivery_events", static_cast<std::int64_t>(c.delivery_events));
  j.set("counters", std::move(counters));

  j.set("thm11_bound", result.thm11_bound);
  j.set("global_bound", result.global_bound);
  j.set("diameter", result.diameter);

  Json realign = Json::object();
  realign.set("nodes_shifted", static_cast<std::int64_t>(result.realign.nodes_shifted));
  realign.set("max_abs_shift", result.realign.max_abs_shift);
  j.set("realign", std::move(realign));

  const RecoveryReport& rec = result.recovery;
  Json recovery = Json::object();
  recovery.set("enabled", rec.enabled);
  recovery.set("corrupt_wave", static_cast<std::int64_t>(rec.corrupt_wave));
  recovery.set("scan_hi", static_cast<std::int64_t>(rec.scan_hi));
  recovery.set("threshold", rec.threshold);
  recovery.set("recovered", rec.recovered);
  recovery.set("recovered_wave", static_cast<std::int64_t>(rec.recovered_wave));
  Json series = Json::array();
  for (const double v : rec.local_by_wave) {
    // JSON has no NaN; null round-trips the "no readable pair" marker.
    series.push_back(std::isnan(v) ? Json() : Json(v));
  }
  recovery.set("local_by_wave", std::move(series));
  j.set("recovery", std::move(recovery));

  j.set("engine_stats", stats_to_json(result.engine_stats));
  return j;
}

ExperimentResult result_from_json(const Json& j, const std::string& path) {
  try {
    if (!(j.at("format") == Json(kResultFormat))) {
      throw CkptError(path + ": not a gtrix cell-result document (format is " +
                      j.at("format").dump() + ")");
    }
    const std::int64_t version = j.at("version").as_int();
    if (version != kResultVersion) {
      throw CkptError(path + ": cell-result format version " + std::to_string(version) +
                      " is not supported (this build reads version " +
                      std::to_string(kResultVersion) + ")");
    }

    ExperimentResult result;
    const Json& s = j.at("skew");
    SkewReport& skew = result.skew;
    skew.intra_by_layer = doubles_from_json(s.at("intra_by_layer"));
    skew.inter_by_layer = doubles_from_json(s.at("inter_by_layer"));
    skew.spread_by_layer = doubles_from_json(s.at("spread_by_layer"));
    skew.max_intra = s.at("max_intra").as_double();
    skew.max_inter = s.at("max_inter").as_double();
    skew.local_skew = s.at("local_skew").as_double();
    skew.global_skew = s.at("global_skew").as_double();
    skew.sigma_lo = s.at("sigma_lo").as_int();
    skew.sigma_hi = s.at("sigma_hi").as_int();
    skew.pairs_checked = s.at("pairs_checked").as_u64();
    skew.pairs_skipped = s.at("pairs_skipped").as_u64();
    const Json& dev = s.at("deviations");
    skew.deviations.count = dev.at("count").as_u64();
    skew.deviations.mean = dev.at("mean").as_double();
    skew.deviations.p50 = dev.at("p50").as_double();
    skew.deviations.p90 = dev.at("p90").as_double();
    skew.deviations.p99 = dev.at("p99").as_double();
    skew.deviations.exact = dev.at("exact").as_bool();

    const Json& counters = j.at("counters");
    ExperimentCounters& c = result.counters;
    c.iterations = counters.at("iterations").as_u64();
    c.late_broadcasts = counters.at("late_broadcasts").as_u64();
    c.guard_aborts = counters.at("guard_aborts").as_u64();
    c.watchdog_resets = counters.at("watchdog_resets").as_u64();
    c.timeout_branches = counters.at("timeout_branches").as_u64();
    c.duplicate_drops = counters.at("duplicate_drops").as_u64();
    c.events_executed = counters.at("events_executed").as_u64();
    c.messages_sent = counters.at("messages_sent").as_u64();
    c.messages_delivered = counters.at("messages_delivered").as_u64();
    c.delivery_events = counters.at("delivery_events").as_u64();

    result.thm11_bound = j.at("thm11_bound").as_double();
    result.global_bound = j.at("global_bound").as_double();
    result.diameter = static_cast<std::uint32_t>(j.at("diameter").as_u64());

    const Json& realign = j.at("realign");
    result.realign.nodes_shifted =
        static_cast<std::uint32_t>(realign.at("nodes_shifted").as_u64());
    result.realign.max_abs_shift = realign.at("max_abs_shift").as_int();

    const Json& recovery = j.at("recovery");
    RecoveryReport& rec = result.recovery;
    rec.enabled = recovery.at("enabled").as_bool();
    rec.corrupt_wave = recovery.at("corrupt_wave").as_int();
    rec.scan_hi = recovery.at("scan_hi").as_int();
    rec.threshold = recovery.at("threshold").as_double();
    rec.recovered = recovery.at("recovered").as_bool();
    rec.recovered_wave = recovery.at("recovered_wave").as_int();
    const Json& series = recovery.at("local_by_wave");
    rec.local_by_wave.reserve(series.size());
    for (std::size_t i = 0; i < series.size(); ++i) {
      rec.local_by_wave.push_back(series[i].is_null()
                                      ? std::numeric_limits<double>::quiet_NaN()
                                      : series[i].as_double());
    }

    result.engine_stats = stats_from_json(j.at("engine_stats"));
    return result;
  } catch (const JsonError& e) {
    throw CkptError(path + ": malformed cell-result document (" + e.what() + ")");
  }
}

}  // namespace gtrix
