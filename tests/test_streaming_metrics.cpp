// Live-vs-replay differential suite: the correctness anchor of the one skew
// evaluator's two feeds (metrics/streaming.hpp, docs/scaling.md).
//
// Full recording replays its kept trace through StreamingSkew; a clean
// streaming cell feeds the same accumulator live. The contract:
//  * every field of the skew report -- extrema, per-layer vectors,
//    pairs_checked, the deviation count, the sketch quantiles and the mean
//    of the exact deviation sum -- is BIT-identical between the two feeds
//    on every small builtin scenario: the same arithmetic in a different
//    commit order, and none of it depends on that order;
//  * so are the report and the saved accumulator bytes of two live feeds
//    that interleave the nodes differently but keep each node's own order
//    (the sharded engine's per-window replay is one such feed);
//  * queries that need a per-wave trace or iteration records (conditions,
//    arbitrary skew windows, realignment) are hard errors on a clean
//    streaming cell, and so is a wave-ring overflow;
//  * campaign output under streaming recording is byte-identical across
//    thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/codec.hpp"
#include "runner/campaign.hpp"
#include "scenario/registry.hpp"
#include "support/rng.hpp"

namespace gtrix {
namespace {

/// Builtins with cells small enough for the differential double-run. The
/// scale scenarios are excluded on runtime grounds only: bench_scale runs
/// the same identity check on them (smoke_bench_scale in CI).
const char* const kDifferentialScenarios[] = {
    "quickstart-grid",     "table1-comparison", "thm11-logd",
    "thm12-worstcase-faults", "thm13-random-faults", "fig5-jump-ablation",
    "thm16-stabilization", "torus-smoke",       "cor15-slow-dynamics",
};

CampaignResult run_with_recording(const Scenario& scenario, const std::string& mode) {
  CampaignOptions options;
  options.threads = 2;
  if (!mode.empty()) options.recording_override = ComponentSpec::of(mode);
  return run_campaign(scenario, options);
}

void expect_identical_extrema(const SkewReport& full, const SkewReport& other,
                              const std::string& where) {
  SCOPED_TRACE(where);
  // Bit-identity: EXPECT_EQ on doubles, not EXPECT_NEAR.
  EXPECT_EQ(full.max_intra, other.max_intra);
  EXPECT_EQ(full.max_inter, other.max_inter);
  EXPECT_EQ(full.local_skew, other.local_skew);
  EXPECT_EQ(full.global_skew, other.global_skew);
  EXPECT_EQ(full.intra_by_layer, other.intra_by_layer);
  EXPECT_EQ(full.inter_by_layer, other.inter_by_layer);
  EXPECT_EQ(full.spread_by_layer, other.spread_by_layer);
  EXPECT_EQ(full.sigma_lo, other.sigma_lo);
  EXPECT_EQ(full.sigma_hi, other.sigma_hi);
  EXPECT_EQ(full.pairs_checked, other.pairs_checked);
}

/// The deviation statistics: both feeds fill the same log-binned sketch and
/// the same exact sum, so the count, every quantile and the mean are equal
/// bit for bit.
void expect_same_deviations(const DeviationStats& full, const DeviationStats& other,
                            const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(full.count, other.count);
  EXPECT_EQ(full.p50, other.p50);
  EXPECT_EQ(full.p90, other.p90);
  EXPECT_EQ(full.p99, other.p99);
  EXPECT_EQ(full.mean, other.mean);
}

TEST(StreamingMetrics, BitIdenticalExtremaOnEveryBuiltinScenario) {
  for (const char* name : kDifferentialScenarios) {
    SCOPED_TRACE(name);
    const Scenario scenario = builtin_scenario(name);
    // Corrupt cells replay their kept pulse trace in both modes; clean
    // streaming cells feed the accumulator live.
    const CampaignResult full = run_with_recording(scenario, "");
    const CampaignResult streaming = run_with_recording(scenario, "streaming");
    ASSERT_EQ(full.cells.size(), streaming.cells.size());
    for (std::size_t i = 0; i < full.cells.size(); ++i) {
      const std::string where = std::string(name) + " cell " + full.cells[i].label;
      expect_identical_extrema(full.cells[i].result.skew, streaming.cells[i].result.skew,
                               where);
      expect_same_deviations(full.cells[i].result.skew.deviations,
                             streaming.cells[i].result.skew.deviations, where);
    }
  }
}

ExperimentConfig small_config() {
  ExperimentConfig config;
  config.columns = 6;
  config.layers = 6;
  config.pulses = 14;
  config.seed = 9;
  return config;
}

TEST(StreamingMetrics, StreamingDiagnosticsAreCleanOnDirectRuns) {
  ExperimentConfig config = small_config();
  config.recording_spec = ComponentSpec::of("streaming");
  World world(config);
  world.run_to_completion();
  ASSERT_NE(world.streaming(), nullptr);
  EXPECT_EQ(world.streaming()->window_overflows(), 0u);
  EXPECT_EQ(world.streaming()->out_of_order(), 0u);
  EXPECT_GT(world.streaming()->memory_bytes(), 0u);
  EXPECT_GT(world.skew().pairs_checked, 0u);
}

TEST(StreamingMetrics, CorruptionAnchorReplacesTheLiveAccumulatorWithTheTrace) {
  ExperimentConfig config = small_config();
  config.recording_spec = ComponentSpec::of("streaming");
  World anchored(config);
  ASSERT_NE(anchored.streaming(), nullptr);
  anchored.set_corruption_anchor(4.0);
  EXPECT_EQ(anchored.streaming(), nullptr);
  anchored.run_to_completion();
  World full(small_config());
  full.run_to_completion();
  // Both replay the same kept trace: every window answers byte for byte as
  // under full recording.
  EXPECT_EQ(skew_to_json(anchored.skew()).dump(), skew_to_json(full.skew()).dump());
  EXPECT_EQ(skew_to_json(anchored.skew_window(5, 9)).dump(),
            skew_to_json(full.skew_window(5, 9)).dump());
}

TEST(StreamingMetrics, StreamingModeRejectsTraceOnlyQueries) {
  ExperimentConfig config = small_config();
  config.recording_spec = ComponentSpec::of("streaming");
  World world(config);
  world.run_to_completion();
  EXPECT_NO_THROW((void)world.skew());
  try {
    (void)world.conditions(2);
    FAIL() << "conditions checks need full recording";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("streaming mode keeps none"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)world.skew_window(0, 5), std::logic_error);
  EXPECT_THROW((void)world.realign_labels(), std::logic_error);
}

TEST(StreamingMetrics, CampaignBytesIdenticalAcrossThreadCountsUnderStreaming) {
  const Scenario scenario = builtin_scenario("quickstart-grid");
  CampaignOptions one;
  one.threads = 1;
  one.recording_override = ComponentSpec::of("streaming");
  CampaignOptions four;
  four.threads = 4;
  four.recording_override = ComponentSpec::of("streaming");
  const std::string a = campaign_jsonl(run_campaign(scenario, one));
  const std::string b = campaign_jsonl(run_campaign(scenario, four));
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // The emitted configs carry the override, so the bytes say what ran.
  EXPECT_NE(a.find("\"recording\":\"streaming\""), std::string::npos);
}

TEST(StreamingMetrics, CorruptCellsHonorConfiguredRecording) {
  // thm16 cells have a corrupt plan; run_cell runs them in the configured
  // mode -- realignment, the post-recovery skew and the recovery scan
  // replay the pulse trace the corruption anchor keeps.
  const Scenario scenario = builtin_scenario("thm16-stabilization");
  CampaignOptions options;
  options.threads = 2;
  options.recording_override = ComponentSpec::of("streaming");
  const CampaignResult result = run_campaign(scenario, options);
  for (const CampaignCell& cell : result.cells) {
    ASSERT_TRUE(cell.corrupt.enabled);
    EXPECT_TRUE(cell.result.recovery.enabled) << cell.label;
  }
  // The override IS stamped into corrupt cells' configs -- streaming is
  // what actually ran, and the emitted JSONL says so.
  const std::string jsonl = campaign_jsonl(result);
  EXPECT_NE(jsonl.find("\"recording\":\"streaming\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"recovery\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"realign\""), std::string::npos);

  // Same holds when the SCENARIO itself declares streaming on corrupt
  // cells: the declared mode runs, no silent rewrite to full.
  const Scenario declared = Scenario::from_json(Json::parse(R"({
    "name": "corrupt-streaming",
    "config": {"columns": 5, "layers": 5, "pulses": 40, "self_stabilizing": true,
               "recording": {"kind": "streaming"}},
    "corrupt": {"wave": 8.0, "fraction": 1.0}
  })"));
  CampaignOptions plain;
  plain.threads = 1;
  const CampaignResult declared_result = run_campaign(declared, plain);
  ASSERT_EQ(declared_result.cells.size(), 1u);
  EXPECT_EQ(resolve_recording(declared_result.cells[0].config.recording_spec),
            RecordingMode::kStreaming);
  EXPECT_NE(campaign_jsonl(declared_result).find("\"recording\":\"streaming\""),
            std::string::npos);
}

TEST(StreamingMetrics, RecordingSpecRoundTripsThroughScenarioJson) {
  const Json doc = Json::parse(R"({
    "name": "rt",
    "config": {"columns": 4, "layers": 4, "pulses": 6,
               "recording": {"kind": "streaming"}}
  })");
  const Scenario scenario = Scenario::from_json(doc);
  const auto cells = scenario.cells();
  ASSERT_EQ(cells.size(), 1u);
  const Json serialized = to_json(cells[0].config);
  const ExperimentConfig back = config_from_json(serialized);
  EXPECT_EQ(back, cells[0].config);
  EXPECT_EQ(serialized.at("recording").as_string(), "streaming");
  EXPECT_EQ(resolve_recording(back.recording_spec), RecordingMode::kStreaming);
}

TEST(StreamingMetrics, DefaultFullRecordingStaysOutOfSerializedConfigs) {
  ExperimentConfig config = small_config();
  const Json j = to_json(config);
  EXPECT_FALSE(j.contains("recording"));
  config.recording_spec = ComponentSpec::of("streaming");
  EXPECT_EQ(to_json(config).at("recording").as_string(), "streaming");
}

TEST(StreamingMetrics, RecordingErrorsArePathQualified) {
  EXPECT_THROW(config_from_json(Json::parse(
                   R"({"columns": 4, "recording": "nope"})")),
               JsonError);
}

/// One recorded pulse, as a feed replays it.
struct FedPulse {
  SimTime key = 0.0;  ///< feed order
  RecNodeId node = 0;
  Sigma sigma = 0;
  SimTime t = 0.0;
};

std::vector<std::uint8_t> saved_bytes(StreamingSkew& stream) {
  CkptWriter writer;
  writer.write_section("streaming", [&](CkptIo& io) { stream.checkpoint(io); });
  return writer.finish("{}");
}

TEST(StreamingMetrics, CrossNodeFeedOrderChangesNoReportFieldAndNoSavedByte) {
  // A 6-column, 5-layer grid pulsing Lambda = 2000 apart per wave, one link
  // delay (1000) per layer, with per-pulse jitter: the serial feed is time
  // order. The second feed moves every pulse later by up to 900 (less than
  // one link delay), which reorders the nodes inside each window but keeps
  // each node's own pulses in order, as the sharded engine's per-window
  // replay does.
  const Grid grid(BaseGraph::line_replicated(6), 5);
  Rng rng(2301);
  std::vector<FedPulse> time_order;
  for (GridNodeId g = 0; g < grid.node_count(); ++g) {
    for (Sigma s = 0; s < 16; ++s) {
      const SimTime t = 2000.0 * static_cast<double>(s) +
                        1000.0 * static_cast<double>(grid.layer_of(g)) + rng.uniform(0.0, 30.0);
      time_order.push_back(FedPulse{t, g, s, t});
    }
  }
  std::vector<FedPulse> reordered = time_order;
  for (FedPulse& p : reordered) p.key = p.t + rng.uniform(0.0, 900.0);
  const auto by_key = [](const FedPulse& a, const FedPulse& b) { return a.key < b.key; };
  std::sort(time_order.begin(), time_order.end(), by_key);
  std::sort(reordered.begin(), reordered.end(), by_key);
  const auto node_order_of = [](const std::vector<FedPulse>& feed) {
    std::vector<RecNodeId> nodes;
    for (const FedPulse& p : feed) nodes.push_back(p.node);
    return nodes;
  };
  ASSERT_NE(node_order_of(time_order), node_order_of(reordered));

  const auto feed = [&](const std::vector<FedPulse>& pulses, StreamingSkew& stream) {
    for (const FedPulse& p : pulses) stream.on_pulse(p.node, p.sigma, p.t);
  };
  const std::vector<bool> faulty(grid.node_count(), false);
  StreamingSkew serial(grid, faulty, 2);
  StreamingSkew moved(grid, faulty, 2);
  feed(time_order, serial);
  feed(reordered, moved);
  EXPECT_EQ(serial.window_overflows(), 0u);
  EXPECT_EQ(moved.window_overflows(), 0u);
  const SkewReport a = serial.report(2, 14);
  const SkewReport b = moved.report(2, 14);
  ASSERT_GT(a.pairs_checked, 1000u);
  expect_identical_extrema(a, b, "cross-node reorder");
  expect_same_deviations(a.deviations, b.deviations, "cross-node reorder");
  EXPECT_EQ(skew_to_json(a).dump(), skew_to_json(b).dump());
  EXPECT_EQ(saved_bytes(serial), saved_bytes(moved));
}

TEST(StreamingMetrics, RingOverflowIsAHardErrorNamingTheCount) {
  // Two adjacent layer-0 nodes: node 0 commits waves 0..10, so its
  // 8-wave ring holds waves 3..10 when node 1 commits wave 1 -- a partner
  // pulse more than 8 waves stale, whose slot was already overwritten.
  const Grid grid(BaseGraph::path(2), 2);
  StreamingSkew stream(grid, std::vector<bool>(grid.node_count(), false), 0);
  for (Sigma s = 0; s <= 11; ++s) stream.on_pulse(0, s, 1000.0 * static_cast<double>(s));
  EXPECT_NO_THROW((void)stream.report(0, 11));
  stream.on_pulse(1, 1, 1000.0);
  stream.on_pulse(1, 2, 2000.0);  // commits node 1's wave 1
  ASSERT_GT(stream.window_overflows(), 0u);
  try {
    (void)stream.report(0, 11);
    FAIL() << "a ring overflow must not report under-counted extrema";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::to_string(stream.window_overflows()) + " wave-ring lookups"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("8 waves"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace gtrix
