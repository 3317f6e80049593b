// Sharded-engine differential harness: the conservative-parallel engine
// (EngineOptions::shards > 1; runner/shard_driver.hpp) must be bit-identical
// to the serial engine on every builtin scenario -- including mid-run
// corruption (the run_until window path) and streaming recording -- and the
// campaign JSONL must not depend on the (threads, shards) combination.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/codec.hpp"
#include "metrics/streaming.hpp"
#include "net/network.hpp"
#include "runner/campaign.hpp"
#include "runner/experiment.hpp"
#include "scenario/registry.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace gtrix {
namespace {

// Thins a builtin scenario document to one cell: every sweep axis keeps only
// its last value (the last value exercises the "most faulted" end of fault
// axes), and the mega-grid scale scenarios shrink to a 40x40 grid so the
// differential run stays test-sized while keeping their topology and
// streaming-recording coverage.
Json thin_doc(Json doc) {
  if (doc.contains("sweep")) {
    Json thin = Json::object();
    for (const auto& [key, value] : doc.at("sweep").as_object()) {
      Json axis = Json::array();
      if (value.is_array()) {
        axis.push_back(value.as_array().back());
      } else {
        axis.push_back(value.at("from"));  // {"from","count"} range spec
      }
      thin.set(key, std::move(axis));
    }
    doc.set("sweep", std::move(thin));
  }
  Json config = doc.at("config");
  if (config.contains("columns") && config.at("columns").as_int() >= 256) {
    config.set("columns", static_cast<std::int64_t>(40));
    config.set("layers", static_cast<std::int64_t>(40));
    doc.set("config", std::move(config));
  }
  return doc;
}

TEST(Sharded, ShardPlanUsesContiguousColumnRanges) {
  const auto cells = builtin_scenario("quickstart-grid").cells();
  const ExperimentConfig& config = cells.front().config;  // 6 columns
  EngineOptions engine;
  engine.shards = 4;
  World world(config, engine);
  ASSERT_EQ(world.shard_count(), 4u);
  std::vector<bool> used(4, false);
  std::uint32_t previous = 0;
  for (GridNodeId g = 0; g < world.grid().node_count(); ++g) {
    const std::uint32_t col = world.grid().base().column(world.grid().base_of(g));
    const std::uint32_t shard = world.shard_of(g);
    EXPECT_EQ(shard, col * 4u / 6u) << "node " << g;
    EXPECT_GE(shard, col == 0 ? 0u : previous);
    used[shard] = true;
    previous = shard;
  }
  for (std::uint32_t s = 0; s < 4; ++s) EXPECT_TRUE(used[s]) << "empty shard " << s;
}

TEST(Sharded, ShardCountClampsToColumns) {
  const auto cells = builtin_scenario("quickstart-grid").cells();
  const ExperimentConfig& config = cells.front().config;  // 6 columns
  for (const auto& [requested, expected] :
       {std::pair<std::uint32_t, std::uint32_t>{0, 1},
        {1, 1},
        {2, 2},
        {6, 6},
        {8, 6},
        {4096, 6}}) {
    EngineOptions engine;
    engine.shards = requested;
    World world(config, engine);
    EXPECT_EQ(world.shard_count(), expected) << "requested " << requested;
  }
}

TEST(Sharded, LineModeClockSourceLivesInShardZero) {
  auto cells = builtin_scenario("quickstart-grid").cells();
  ExperimentConfig config = cells.front().config;
  config.layer0 = Layer0Mode::kLinePropagation;
  EngineOptions engine;
  engine.shards = 3;
  World world(config, engine);
  ASSERT_EQ(world.shard_count(), 3u);
  // The line-mode clock source is the extra net node after the grid nodes;
  // it feeds column 0 and must share its shard.
  EXPECT_EQ(world.shard_of(world.grid().node_count()), 0u);
}

TEST(Sharded, AllBuiltinScenariosIdenticalAcrossShardCounts) {
  // 1-vs-2-vs-4-vs-8-shard differential over every builtin scenario (thinned
  // to one cell each): skew reports AND logical event counts must match the
  // serial engine exactly. Covers corrupt cells (thm16-stabilization runs
  // the run_until + corrupt_fraction + realign path) and streaming
  // recording: the scale scenarios declare it, and every other builtin runs
  // once more under a streaming override. A clean streaming cell's shards
  // feed the live accumulator concurrently and score the pairs across a
  // cut at each window's exchange, so this is where a feed-order
  // dependence of any report field would show.
  for (const BuiltinInfo& info : builtin_scenarios()) {
    const Scenario scenario = Scenario::from_json(thin_doc(builtin_scenario_doc(info.name)));
    std::vector<ScenarioCell> cells = scenario.cells();
    for (const ScenarioCell& cell : scenario.cells()) {
      if (resolve_recording(cell.config.recording_spec) == RecordingMode::kStreaming) continue;
      ScenarioCell& streaming = cells.emplace_back(cell);
      streaming.config.recording_spec = ComponentSpec::of("streaming");
      streaming.label += " (streaming)";
    }
    for (const ScenarioCell& cell : cells) {
      const ExperimentResult serial = run_cell(cell.config, cell.corrupt, EngineOptions{});
      const std::string baseline = skew_to_json(serial.skew).dump();
      const std::uint64_t logical = serial.counters.logical_events();
      for (const std::uint32_t shards : {2u, 4u, 8u}) {
        EngineOptions engine;
        engine.shards = shards;
        const ExperimentResult sharded = run_cell(cell.config, cell.corrupt, engine);
        EXPECT_EQ(skew_to_json(sharded.skew).dump(), baseline)
            << info.name << " cell " << cell.label << " diverged at " << shards
            << " shards";
        EXPECT_EQ(sharded.counters.logical_events(), logical)
            << info.name << " cell " << cell.label << " logical events diverged at "
            << shards << " shards";
        EXPECT_EQ(sharded.counters.messages_delivered, serial.counters.messages_delivered)
            << info.name << " cell " << cell.label;
        EXPECT_EQ(sharded.counters.iterations, serial.counters.iterations)
            << info.name << " cell " << cell.label;
      }
    }
  }
}

TEST(Sharded, EqualTimestampsOnTwoRecorderLanesFoldToTheSerialResult) {
  // Nodes 0 and 1 (layer 0) pulse at one timestamp every wave; nodes 2 and
  // 3 (layer 1) follow with jitter. Two lanes of one recorder take nodes
  // {1, 3} (lane 0) and {0, 2} (lane 1), so every node is a cut node, each
  // window records lane 0's node first -- a cross-node order the serial
  // engine never produces -- and the window's exchange scores every pair.
  // Recorder and live accumulator must still end in the serial report, and
  // the recorder, whose lanes are saved folded, in the serial saved bytes.
  const Grid grid(BaseGraph::path(2), 2);
  const std::vector<std::uint32_t> base_lane = {1, 0};  // by base node, in both layers
  const std::vector<bool> faulty(grid.node_count(), false);
  struct Sink {
    std::unique_ptr<Recorder> recorder;
    std::unique_ptr<StreamingSkew> stream;
  };
  const auto make_sink = [&](RecordingMode mode, const std::vector<std::uint32_t>& base_lanes) {
    Sink sink{std::make_unique<Recorder>(), nullptr};
    sink.recorder->configure(mode);
    for (GridNodeId g = 0; g < grid.node_count(); ++g) {
      NodeMeta meta;
      meta.layer = grid.layer_of(g);
      meta.base = grid.base_of(g);
      meta.column = grid.base().column(meta.base);
      sink.recorder->register_node(g, meta);
    }
    if (mode == RecordingMode::kStreaming) {
      sink.stream = std::make_unique<StreamingSkew>(grid, faulty, 1, base_lanes);
      sink.recorder->set_stream(sink.stream.get());
    }
    if (!base_lanes.empty()) {
      std::vector<std::uint32_t> node_lanes;
      for (GridNodeId g = 0; g < grid.node_count(); ++g) {
        node_lanes.push_back(base_lanes[grid.base_of(g)]);
      }
      sink.recorder->set_lanes(node_lanes);
    }
    return sink;
  };
  const auto saved = [](const auto& codec) {
    CkptWriter writer;
    writer.write_section("state", codec);
    return writer.finish("{}");
  };

  for (const RecordingMode mode : {RecordingMode::kFull, RecordingMode::kStreaming}) {
    SCOPED_TRACE(std::string(to_string(mode)));
    Sink serial = make_sink(mode, {});
    Sink lanes = make_sink(mode, base_lane);
    const auto end_window = [&] {
      if (lanes.stream != nullptr) lanes.stream->exchange();
    };
    Rng rng(7);
    for (Sigma s = 0; s < 12; ++s) {
      const SimTime t = 2000.0 * static_cast<double>(s);
      // Window 1: both layer-0 nodes record at t.
      for (const RecNodeId node : {0u, 1u}) serial.recorder->record_pulse(node, s, t);
      for (const RecNodeId node : {1u, 0u}) lanes.recorder->record_pulse(node, s, t);
      end_window();
      // Window 2: layer 1, one link delay later.
      const SimTime t2 = t + 1000.0 + rng.uniform(0.0, 20.0);
      const SimTime t3 = t + 1000.0 + rng.uniform(0.0, 20.0);
      serial.recorder->record_pulse(2, s, t2);
      serial.recorder->record_pulse(3, s, t3);
      lanes.recorder->record_pulse(3, s, t3);
      lanes.recorder->record_pulse(2, s, t2);
      end_window();
    }
    EXPECT_EQ(lanes.recorder->pulse_count(), serial.recorder->pulse_count());
    EXPECT_EQ(saved([&](CkptIo& io) { serial.recorder->checkpoint(io); }),
              saved([&](CkptIo& io) { lanes.recorder->checkpoint(io); }));
    if (mode == RecordingMode::kStreaming) {
      const SkewReport report = serial.stream->report(1, 10);
      EXPECT_GT(report.pairs_checked, 0u);
      EXPECT_EQ(skew_to_json(lanes.stream->report(1, 10)).dump(), skew_to_json(report).dump());
      EXPECT_EQ(lanes.stream->window_overflows(), 0u);
    }
  }
}

TEST(Sharded, CutTopologiesMatchTheSerialSkewAtEveryShardCount) {
  // A cycle of reach 2 puts a cut node's partners up to two columns across
  // the cut; at 4 shards of 6 columns shard 1 is column 2 alone, so a pair
  // from column 1 (shard 0) to column 3 (shard 2) skips a whole shard. The
  // torus's wrap-around edges cut between the last shard and the first.
  // Every cross-shard pair must be scored once, at a window's exchange.
  ComponentSpec cycle = ComponentSpec::of("cycle");
  cycle.params.set("reach", 2);
  for (const ComponentSpec& topology : {cycle, ComponentSpec::of("torus")}) {
    SCOPED_TRACE(topology.kind);
    ExperimentConfig config;
    config.topology_spec = topology;
    config.columns = 6;
    config.layers = 6;
    config.pulses = 20;
    config.recording_spec = ComponentSpec::of("streaming");
    World serial(config);
    serial.run_to_completion();
    const SkewReport want = serial.skew();
    ASSERT_GT(want.pairs_checked, 0u);
    for (const std::uint32_t shards : {2u, 3u, 4u}) {
      EngineOptions engine;
      engine.shards = shards;
      World world(config, engine);
      ASSERT_EQ(world.shard_count(), shards);
      world.run_to_completion();
      ASSERT_NE(world.streaming(), nullptr);
      EXPECT_EQ(world.streaming()->window_overflows(), 0u) << shards << " shards";
      const SkewReport got = world.skew();
      EXPECT_EQ(got.pairs_checked, want.pairs_checked) << shards << " shards";
      EXPECT_EQ(skew_to_json(got).dump(), skew_to_json(want).dump()) << shards << " shards";
    }
  }
}

TEST(Sharded, DriftShortensTheLookaheadByHalfItsAmplitude) {
  ExperimentConfig config;
  config.columns = 8;
  config.layers = 6;
  config.pulses = 8;
  config.delay_spec.params.set("drift_amplitude", 10.0);
  EngineOptions engine;
  engine.shards = 2;
  World world(config, engine);
  const Network& net = world.network();
  SimTime min_cross = kTimeInfinity;
  for (EdgeId e = 0; e < net.edge_count(); ++e) {
    if (world.shard_of(net.edge_from(e)) != world.shard_of(net.edge_to(e))) {
      min_cross = std::min(min_cross, net.edge_delay(e));
    }
  }
  ASSERT_LT(min_cross, kTimeInfinity);
  EXPECT_EQ(net.cross_shard_lookahead(), min_cross - 5.0);
  // The shortened windows keep the run identical to the serial engine's.
  world.run_to_completion();
  World serial(config);
  serial.run_to_completion();
  EXPECT_EQ(skew_to_json(world.skew()).dump(), skew_to_json(serial.skew()).dump());
}

TEST(Sharded, RepeatedShardedRunsAreDeterministic) {
  // The mailbox hand-off runs under real thread interleaving; repeat the
  // same 4-shard cell several times to catch schedule-dependent divergence
  // (a lost or duplicated envelope shows up as a changed digest).
  const auto cells = builtin_scenario("quickstart-grid").cells();
  const ExperimentConfig& config = cells.front().config;
  EngineOptions engine;
  engine.shards = 4;
  const std::string first = skew_to_json(run_cell(config, {}, engine).skew).dump();
  for (int repeat = 0; repeat < 5; ++repeat) {
    EXPECT_EQ(skew_to_json(run_cell(config, {}, engine).skew).dump(), first)
        << "repeat " << repeat;
  }
}

TEST(Sharded, CampaignJsonlIsIdenticalAcrossThreadsAndShards) {
  // Nested parallelism: whatever combination of sweep workers and engine
  // shards the budget resolves to, the campaign JSONL bytes cannot change.
  const Scenario scenario = builtin_scenario("quickstart-grid");
  const std::string baseline = campaign_jsonl(
      run_campaign(scenario, CampaignOptions{.threads = 1, .shards = 1, .recording_override = {}}));
  ASSERT_FALSE(baseline.empty());
  for (const unsigned threads : {1u, 2u, 4u}) {
    for (const std::uint32_t shards : {1u, 2u, 4u}) {
      if (threads == 1 && shards == 1) continue;
      const CampaignResult result = run_campaign(
          scenario, CampaignOptions{.threads = threads, .shards = shards, .recording_override = {}});
      EXPECT_EQ(campaign_jsonl(result), baseline)
          << "threads=" << threads << " shards=" << shards;
    }
  }
}

TEST(Sharded, CampaignBudgetsShardsAgainstSweepThreads) {
  // cells x shards stays within hardware concurrency: shards_used follows
  // the documented formula from the ACTUAL thread count, whatever machine
  // the test runs on.
  const Scenario scenario = builtin_scenario("quickstart-grid");
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  for (const unsigned threads : {1u, 2u}) {
    const CampaignResult result = run_campaign(
        scenario, CampaignOptions{.threads = threads, .shards = 8, .recording_override = {}});
    const std::uint32_t expected = std::max<std::uint32_t>(
        1, std::min<std::uint32_t>(8, hardware / std::max(1u, result.threads_used)));
    EXPECT_EQ(result.shards_used, expected) << "threads=" << threads;
    EXPECT_EQ(campaign_summary(result).at("shards").as_int(),
              static_cast<std::int64_t>(expected));
  }
  // An explicit --shards=1 always runs serial regardless of budget headroom.
  const CampaignResult serial =
      run_campaign(scenario, CampaignOptions{.threads = 1, .shards = 1, .recording_override = {}});
  EXPECT_EQ(serial.shards_used, 1u);
}

TEST(Sharded, ScenarioEngineShardsParsesAndValidates) {
  const Scenario with = Scenario::from_json(Json::parse(R"({
    "name": "t", "config": {"columns": 4, "layers": 4, "pulses": 6},
    "engine": {"shards": 4}
  })"));
  EXPECT_EQ(with.engine_shards(), 4u);
  const Scenario without = Scenario::from_json(Json::parse(R"({
    "name": "t", "config": {"columns": 4, "layers": 4, "pulses": 6}
  })"));
  EXPECT_EQ(without.engine_shards(), 1u);
  EXPECT_THROW(Scenario::from_json(Json::parse(R"({
    "name": "t", "config": {}, "engine": {"shards": 0}
  })")),
               std::runtime_error);
  EXPECT_THROW(Scenario::from_json(Json::parse(R"({
    "name": "t", "config": {}, "engine": {"threads": 2}
  })")),
               std::runtime_error);
  // The scenario default feeds the campaign when no --shards override is
  // given; results stay identical to the serial run by construction.
  const Scenario tiny = Scenario::from_json(Json::parse(R"({
    "name": "tiny-sharded",
    "config": {"columns": 6, "layers": 6, "pulses": 8},
    "engine": {"shards": 2}
  })"));
  const CampaignResult defaulted =
      run_campaign(tiny, CampaignOptions{.threads = 1, .shards = 0, .recording_override = {}});
  EXPECT_LE(defaulted.shards_used, 2u);
  Json doc = builtin_scenario_doc("quickstart-grid");
  // Builtin docs deliberately carry no "engine" key: engine choices stay out
  // of committed scenario documents (ROADMAP gating doctrine); the scenario
  // key exists for user files.
  EXPECT_FALSE(doc.contains("engine"));
}

TEST(Sharded, NetworkLookaheadIsMinimumCrossShardDelay) {
  Simulator sim_a;
  Simulator sim_b;
  Network net(sim_a);
  const NetNodeId n0 = net.add_node();
  const NetNodeId n1 = net.add_node();
  const NetNodeId n2 = net.add_node();
  const NetNodeId n3 = net.add_node();
  net.add_edge(n0, n1, 0.25);  // intra-shard: must not bound the lookahead
  net.add_edge(n1, n2, 2.0);   // crosses 0 -> 1
  net.add_edge(n2, n1, 1.5);   // crosses 1 -> 0
  net.add_edge(n2, n3, 0.5);   // intra-shard
  net.configure_shards({&sim_a, &sim_b}, {0, 0, 1, 1});
  EXPECT_EQ(net.shard_count(), 2u);
  EXPECT_DOUBLE_EQ(net.cross_shard_lookahead(), 1.5);
  EXPECT_EQ(net.shard_of(n1), 0u);
  EXPECT_EQ(net.shard_of(n2), 1u);
  EXPECT_EQ(net.earliest_mailbox_time(), kTimeInfinity);
}

TEST(Sharded, ConfiguringASingleShardKeepsTheSerialEngine) {
  Simulator sim;
  Network net(sim);
  const NetNodeId n0 = net.add_node();
  const NetNodeId n1 = net.add_node();
  net.add_edge(n0, n1, 1.0);
  net.configure_shards({&sim}, {0, 0});
  EXPECT_EQ(net.shard_count(), 1u);
  // One shard keeps the one-shard wiring: topology edits stay legal.
  net.add_edge(n1, n0, 1.0);
  EXPECT_EQ(net.edge_count(), 2u);
}

}  // namespace
}  // namespace gtrix
