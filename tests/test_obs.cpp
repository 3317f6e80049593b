// Telemetry subsystem tests (src/obs/, docs/observability.md): the
// engine-invariant counter block must be byte-identical across every
// (threads, shards) combination, telemetry must stay strictly
// observational (disabled -> empty stats, enabled -> identical results),
// and the histogram layout is pinned.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/progress.hpp"
#include "obs/rss.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "runner/campaign.hpp"
#include "runner/experiment.hpp"
#include "scenario/registry.hpp"
#include "scratch_dir.hpp"

namespace gtrix {
namespace {

TEST(ObsHistogram, BinEdgesArePinned) {
  // The layout is a stability contract (merging is bin-wise across runs and
  // releases): bin 0 = {0}, bin i = [2^(i-1), 2^i), last bin = overflow.
  ASSERT_EQ(ObsHistogram::kBins, 16u);
  EXPECT_EQ(ObsHistogram::bin_floor(0), 0u);
  EXPECT_EQ(ObsHistogram::bin_floor(1), 1u);
  EXPECT_EQ(ObsHistogram::bin_floor(2), 2u);
  EXPECT_EQ(ObsHistogram::bin_floor(3), 4u);
  EXPECT_EQ(ObsHistogram::bin_floor(15), 16384u);

  EXPECT_EQ(ObsHistogram::bin_of(0), 0u);
  EXPECT_EQ(ObsHistogram::bin_of(1), 1u);
  EXPECT_EQ(ObsHistogram::bin_of(2), 2u);
  EXPECT_EQ(ObsHistogram::bin_of(3), 2u);
  EXPECT_EQ(ObsHistogram::bin_of(4), 3u);
  EXPECT_EQ(ObsHistogram::bin_of(16383), 14u);
  EXPECT_EQ(ObsHistogram::bin_of(16384), 15u);
  // Everything past the last floor lands in the overflow tail.
  EXPECT_EQ(ObsHistogram::bin_of(1'000'000'000ull), 15u);

  // Every bin's floor maps back into its own bin (edge self-consistency).
  for (std::size_t i = 0; i < ObsHistogram::kBins; ++i) {
    EXPECT_EQ(ObsHistogram::bin_of(ObsHistogram::bin_floor(i)), i) << "bin " << i;
  }
}

TEST(ObsHistogram, MergeIsExactAndJsonEmitsFloors) {
  ObsHistogram a;
  ObsHistogram b;
  a.add(0);
  a.add(5);
  b.add(5);
  b.add(16384);
  a.merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.count(0), 1u);
  EXPECT_EQ(a.count(3), 2u);  // two 5s, one from each side
  EXPECT_EQ(a.count(15), 1u);

  const Json j = a.to_json();
  ASSERT_EQ(j.at("bin_floors").as_array().size(), ObsHistogram::kBins);
  ASSERT_EQ(j.at("counts").as_array().size(), ObsHistogram::kBins);
  EXPECT_EQ(j.at("bin_floors").as_array()[3].as_int(), 4);
  EXPECT_EQ(j.at("counts").as_array()[3].as_int(), 2);
}

TEST(ObsCatalog, RowsAlignWithEnumAndNamesAreUnique) {
  const auto catalog = obs_counter_catalog();
  ASSERT_EQ(catalog.size(), kObsCounterCount);
  std::set<std::string> names;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(catalog[i].id), i);
    EXPECT_TRUE(names.insert(catalog[i].name).second)
        << "duplicate counter name " << catalog[i].name;
  }
  // The invariant block is a prefix of the catalog: JSONL field order is
  // catalog order, so a reordering would silently reshuffle output.
  bool seen_shaped = false;
  for (const ObsCounterInfo& info : catalog) {
    if (!info.engine_invariant) seen_shaped = true;
    EXPECT_FALSE(seen_shaped && info.engine_invariant)
        << "invariant counter " << info.name << " after an engine-shaped one";
  }
}

ExperimentConfig tiny_config() {
  return builtin_scenario("quickstart-grid").cells().front().config;
}

TEST(EngineStats, DisabledTelemetryYieldsEmptyStats) {
  // Off by default: no stats, no JSONL block -- the pre-telemetry output.
  const ExperimentResult result = run_cell(tiny_config());
  EXPECT_FALSE(result.engine_stats.enabled);
  for (const ObsCounterInfo& info : obs_counter_catalog()) {
    EXPECT_EQ(result.engine_stats.get(info.id), 0u) << info.name;
  }
  EXPECT_TRUE(result.engine_stats.shards.empty());
  EXPECT_EQ(result.engine_stats.run_wall_seconds, 0.0);

  CampaignOptions options;
  options.threads = 1;
  const CampaignResult campaign =
      run_campaign(builtin_scenario("quickstart-grid"), options);
  EXPECT_EQ(campaign_jsonl(campaign).find("engine_stats"), std::string::npos);
  EXPECT_FALSE(campaign_summary(campaign).contains("engine_stats"));
}

TEST(EngineStats, InvariantBlockIsByteIdenticalAcrossEngines) {
  const ExperimentConfig config = tiny_config();

  EngineOptions fast;
  fast.telemetry = true;
  EngineOptions sharded2;
  sharded2.telemetry = true;
  sharded2.shards = 2;
  EngineOptions sharded4;
  sharded4.telemetry = true;
  sharded4.shards = 4;

  const std::string base = run_cell(config, {}, fast).engine_stats.invariant_json().dump();
  EXPECT_FALSE(base.empty());
  for (const EngineOptions& engine : {sharded2, sharded4}) {
    const ExperimentResult result = run_cell(config, {}, engine);
    ASSERT_TRUE(result.engine_stats.enabled);
    EXPECT_EQ(result.engine_stats.invariant_json().dump(), base);
  }

  // Sanity on the block itself: it contains exactly the invariant counters.
  const Json block = Json::parse(base);
  for (const ObsCounterInfo& info : obs_counter_catalog()) {
    EXPECT_EQ(block.contains(info.name), info.engine_invariant) << info.name;
  }
  EXPECT_GT(block.at("logical_events").as_int(), 0);
  EXPECT_GT(block.at("pulses_recorded").as_int(), 0);
}

TEST(EngineStats, ShardedRunFillsWindowLanesAndEnvelopeCounters) {
  EngineOptions engine;
  engine.telemetry = true;
  engine.shards = 2;
  World world(tiny_config(), engine);
  ASSERT_EQ(world.shard_count(), 2u);
  world.run_to_completion();
  const EngineStats stats = world.engine_stats();
  ASSERT_TRUE(stats.enabled);
  ASSERT_EQ(stats.shards.size(), 2u);
  EXPECT_GT(stats.get(ObsCounter::kShardWindows), 0u);
  EXPECT_EQ(stats.shards[0].windows + stats.shards[1].windows,
            stats.get(ObsCounter::kShardWindows));
  // One histogram sample per executed window.
  EXPECT_EQ(stats.window_events.total(), stats.get(ObsCounter::kShardWindows));
  // Quickstart's grid always crosses the shard boundary, so envelopes flow;
  // everything published gets drained once the run completes.
  EXPECT_GT(stats.get(ObsCounter::kEnvelopesPublished), 0u);
  EXPECT_EQ(stats.get(ObsCounter::kEnvelopesPublished),
            stats.get(ObsCounter::kEnvelopesDrained));
  EXPECT_EQ(stats.shards[0].envelopes_drained + stats.shards[1].envelopes_drained,
            stats.get(ObsCounter::kEnvelopesDrained));
  EXPECT_GT(stats.run_wall_seconds, 0.0);
}

TEST(EngineStats, MergeSumsCountersAndMaxesRss) {
  EngineStats a;
  a.enabled = true;
  a.set(ObsCounter::kLogicalEvents, 10);
  a.peak_rss_mb = 50.0;
  a.run_wall_seconds = 1.0;
  a.shards.resize(1);
  a.shards[0].windows = 3;
  EngineStats b;
  b.enabled = true;
  b.set(ObsCounter::kLogicalEvents, 5);
  b.peak_rss_mb = 80.0;
  b.run_wall_seconds = 0.5;
  b.shards.resize(2);
  b.shards[1].windows = 4;
  a.merge(b);
  EXPECT_EQ(a.get(ObsCounter::kLogicalEvents), 15u);
  EXPECT_EQ(a.peak_rss_mb, 80.0);  // high-water mark, not a sum
  EXPECT_EQ(a.run_wall_seconds, 1.5);
  ASSERT_EQ(a.shards.size(), 2u);
  EXPECT_EQ(a.shards[0].windows, 3u);
  EXPECT_EQ(a.shards[1].windows, 4u);

  // Merging a disabled (default) stats object is a no-op.
  EngineStats c;
  c.merge(EngineStats{});
  EXPECT_FALSE(c.enabled);
}

TEST(CampaignTelemetry, JsonlIsByteIdenticalAcrossThreadsAndShards) {
  // The tentpole determinism contract: with telemetry ON, the per-cell
  // JSONL (including its engine_stats block) must not depend on the sweep
  // thread count or the shard count. Shard requests above the host budget
  // clamp -- which is exactly part of the contract being proven.
  for (const char* name : {"quickstart-grid", "torus-smoke"}) {
    const Scenario scenario = builtin_scenario(name);
    std::string base;
    for (const unsigned threads : {1u, 4u}) {
      for (const std::uint32_t shards : {1u, 2u, 4u}) {
        CampaignOptions options;
        options.threads = threads;
        options.shards = shards;
        options.telemetry = true;
        const std::string jsonl = campaign_jsonl(run_campaign(scenario, options));
        EXPECT_NE(jsonl.find("engine_stats"), std::string::npos);
        if (base.empty()) {
          base = jsonl;
        } else {
          EXPECT_EQ(jsonl, base) << name << " threads=" << threads
                                 << " shards=" << shards;
        }
      }
    }
  }
}

TEST(CampaignTelemetry, SummaryCarriesMergedEngineShapedBlock) {
  CampaignOptions options;
  options.threads = 1;
  options.shards = 2;
  options.telemetry = true;
  const CampaignResult result =
      run_campaign(builtin_scenario("quickstart-grid"), options);
  const Json summary = campaign_summary(result);
  ASSERT_TRUE(summary.contains("engine_stats"));
  const Json& stats = summary.at("engine_stats");
  // Engine-shaped fields live here and only here.
  EXPECT_GT(stats.at("events_executed").as_int(), 0);
  EXPECT_GT(stats.at("shard_windows").as_int(), 0);
  EXPECT_GT(stats.at("peak_rss_mb").as_double(), 0.0);
  ASSERT_EQ(stats.at("shards").as_array().size(), 2u);
  // The JSONL block must NOT leak engine-shaped or wall-clock fields.
  const std::string jsonl = campaign_jsonl(result);
  EXPECT_EQ(jsonl.find("events_executed"), std::string::npos);
  EXPECT_EQ(jsonl.find("wall_seconds"), std::string::npos);
  EXPECT_EQ(jsonl.find("peak_rss_mb"), std::string::npos);
}

TEST(Trace, ShardedRunEmitsNamedWindowAndBarrierSpans) {
  EngineOptions engine;
  engine.telemetry = true;
  engine.shards = 2;
  World world(tiny_config(), engine);
  TraceCollector trace;
  world.set_trace(&trace, 7);
  world.run_to_completion();
  ASSERT_GT(trace.event_count(), 0u);

  const Json doc = trace.to_json();
  ASSERT_TRUE(doc.contains("traceEvents"));
  std::size_t windows = 0;
  std::size_t barriers = 0;
  std::size_t thread_names = 0;
  for (const Json& e : doc.at("traceEvents").as_array()) {
    const std::string ph = e.at("ph").as_string();
    const std::string name = e.at("name").as_string();
    if (ph == "M") {
      if (name == "thread_name") ++thread_names;
      continue;
    }
    ASSERT_EQ(ph, "X");
    EXPECT_EQ(e.at("pid").as_int(), 7);
    EXPECT_GE(e.at("ts").as_double(), 0.0);
    EXPECT_GE(e.at("dur").as_double(), 0.0);
    if (name == "barrier") ++barriers;
    if (name == "window" || name == "window-final") {
      ++windows;
      EXPECT_GE(e.at("args").at("events").as_int(), 0);
    }
  }
  EXPECT_GT(windows, 0u);
  EXPECT_GT(barriers, 0u);
  EXPECT_EQ(thread_names, 2u);  // one label per shard

  // Window spans account for every executed window, matching the stats.
  const EngineStats stats = world.engine_stats();
  EXPECT_EQ(windows, stats.get(ObsCounter::kShardWindows));
}

TEST(Trace, CheckpointedCampaignEmitsPhaseSpans) {
  // Checkpointing must not cost observability: a traced campaign with a
  // checkpoint directory gives every corrupt cell the same phase
  // vocabulary as a plain traced campaign, with one run/recover span per
  // snapshot chunk. The cells run on the serial engine, and every span's
  // (pid, tid) still carries a thread_name, as tools/trace_summary.py
  // requires.
  const Scenario scenario = Scenario::from_json(Json::parse(R"({
    "name": "stab-traced",
    "config": {"columns": 6, "layers": 5, "pulses": 30, "self_stabilizing": true},
    "corrupt": {"wave": 8, "fraction": 1.0},
    "sweep": {"seed": [1, 2]}
  })"));
  const double lambda = scenario.cells().at(0).config.params.lambda;
  const auto dir = scratch_dir("phase_spans");
  for (const bool checkpointed : {false, true}) {
    TraceCollector trace;
    CampaignOptions options;
    options.threads = 2;
    options.trace = &trace;
    if (checkpointed) {
      options.checkpoint.dir = dir.string();
      options.checkpoint.every = 5.0 * lambda;  // chunks end at waves 5, 10, 15, ...
    }
    (void)run_campaign(scenario, options);

    const Json doc = trace.to_json();
    std::map<std::int64_t, std::map<std::string, int>> phases;  // cell pid -> name -> count
    std::set<std::pair<std::int64_t, std::int64_t>> named;      // (pid, tid) with a name
    for (const Json& e : doc.at("traceEvents").as_array()) {
      if (e.at("ph").as_string() == "M" && e.at("name").as_string() == "thread_name") {
        named.emplace(e.at("pid").as_int(), e.at("tid").as_int());
      }
    }
    const std::string mode = checkpointed ? "checkpointed" : "plain";
    for (const Json& e : doc.at("traceEvents").as_array()) {
      if (e.at("ph").as_string() != "X" || e.at("pid").as_int() == 1) continue;
      ++phases[e.at("pid").as_int()][e.at("name").as_string()];
      EXPECT_TRUE(named.count({e.at("pid").as_int(), e.at("tid").as_int()}))
          << mode << ": span '" << e.at("name").as_string() << "' on pid "
          << e.at("pid").as_int() << " tid " << e.at("tid").as_int()
          << " has no thread_name";
    }
    ASSERT_EQ(phases.size(), 2u) << mode;
    for (auto& [pid, count] : phases) {
      SCOPED_TRACE(mode + " cell pid " + std::to_string(pid));
      EXPECT_EQ(count["corrupt"], 1);
      EXPECT_EQ(count["realign"], 1);
      // Plain: one span each. Checkpointed: the chunk to wave 5, then the
      // run to the corruption at wave 8; recovery in chunks of 5 waves.
      EXPECT_EQ(count["run"], checkpointed ? 2 : 1);
      if (checkpointed) {
        EXPECT_GE(count["recover"], 3);
      } else {
        EXPECT_EQ(count["recover"], 1);
      }
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(Trace, StableTidsPerThreadAndProcessNames) {
  TraceCollector trace;
  const std::uint32_t tid = trace.tid_for_current_thread();
  EXPECT_EQ(trace.tid_for_current_thread(), tid);  // idempotent
  trace.set_process_name(1, "campaign");
  trace.add_complete(1, tid, "cell", 0.0, 5.0, 42);
  const Json doc = trace.to_json();
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("ph").as_string(), "M");
  EXPECT_EQ(events[0].at("args").at("name").as_string(), "campaign");
  EXPECT_EQ(events[1].at("name").as_string(), "cell");
  EXPECT_EQ(events[1].at("args").at("events").as_int(), 42);
}

TEST(Rss, PeakSamplerReportsPositiveOnSupportedPlatforms) {
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(peak_rss_mb(), 0.0);
  // Peak is a high-water mark: never below the current footprint's order of
  // magnitude, and monotonically non-decreasing across calls.
  const double first = peak_rss_mb();
  EXPECT_GE(peak_rss_mb(), first);
#else
  EXPECT_EQ(peak_rss_mb(), 0.0);
#endif
}

TEST(Progress, MeterIsSafeToFeedAndStop) {
  // Liveness only -- output goes to stderr and is presentation-only by
  // contract. A long interval keeps the heartbeat silent during the test;
  // the destructor prints the final line and must join cleanly.
  ProgressMeter meter("test-progress", 4, 3600.0);
  meter.cell_done(100);
  meter.cell_done(250);
}

}  // namespace
}  // namespace gtrix
