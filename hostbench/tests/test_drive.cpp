// Harness equivalence: the benchmark's per-cell drive must compute exactly
// what the campaign runner computes, so its timings describe real campaign
// work. On reduced shapes of every workload the drive's JSONL is
// byte-identical to run_campaign + campaign_jsonl, the in-memory checkpoint
// round trip leaves every digest unchanged, and the stored expectations
// agree with the committed BENCH_<scenario>.json files and across shard
// counts.
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "scenario/registry.hpp"
#include "workloads.hpp"

namespace hostbench {
namespace {

using gtrix::Json;

Json read_json(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream s;
  s << in.rdbuf();
  return Json::parse(s.str());
}

/// Shrinks a scenario document's grid so the test runs in seconds.
Json shrink(Json doc, int columns, int layers) {
  Json config = doc.at("config");
  config.set("columns", columns);
  if (layers > 0) config.set("layers", layers);
  doc.set("config", std::move(config));
  return doc;
}

/// The workload with each document shrunk.
Workload reduced(const std::string& name) {
  Workload w = make_workload(name);
  for (Json& doc : w.docs) {
    if (name == "grid-stream" || name == "grid-sharded") doc = shrink(doc, 24, 24);
    if (name == "stabilize-stream") doc = shrink(doc, 8, 0);
  }
  return w;
}

DriveOptions options_for(const Workload& w) {
  DriveOptions o;
  o.engine.shards = w.shards;
  o.threads = w.threads;
  o.ckpt_roundtrip = w.ckpt_roundtrip;
  return o;
}

void expect_same_as_campaign(const Workload& w, std::uint64_t seed) {
  for (const std::string& text : scenario_texts(w, seed)) {
    const ScenarioRun run = drive_scenario(text, options_for(w));
    for (const CellProbe& p : run.probes) EXPECT_EQ(p.error, "") << run.campaign.scenario;
    gtrix::CampaignOptions campaign;
    campaign.threads = w.threads;
    campaign.shards = w.shards;
    const gtrix::CampaignResult reference =
        gtrix::run_campaign(gtrix::Scenario::from_json(Json::parse(text)), campaign);
    EXPECT_EQ(run.jsonl, gtrix::campaign_jsonl(reference))
        << w.name << ": " << run.campaign.scenario << " seed " << seed;
    EXPECT_EQ(run.campaign.shards_used, reference.shards_used);
    // Any seed other than the default checks the bounds alone.
    EXPECT_TRUE(check_scenario(run, kDefaultSeed + 1, nullptr).empty())
        << w.name << ": bound check failed on " << run.campaign.scenario;
  }
}

TEST(HarnessEquivalence, GridStreamMatchesCampaign) {
  expect_same_as_campaign(reduced("grid-stream"), kDefaultSeed);
  expect_same_as_campaign(reduced("grid-stream"), 7);
}

TEST(HarnessEquivalence, GridShardedMatchesCampaign) {
  expect_same_as_campaign(reduced("grid-sharded"), kDefaultSeed);
}

TEST(HarnessEquivalence, PaperSuiteMatchesCampaign) {
  expect_same_as_campaign(make_workload("paper-suite"), kDefaultSeed);
  expect_same_as_campaign(make_workload("paper-suite"), 3);
}

TEST(HarnessEquivalence, StabilizeStreamMatchesCampaign) {
  expect_same_as_campaign(reduced("stabilize-stream"), kDefaultSeed);
}

TEST(HarnessEquivalence, CheckpointRoundTripKeepsDigests) {
  const Workload w = reduced("stabilize-stream");
  DriveOptions plain = options_for(w);
  plain.ckpt_roundtrip = false;
  const std::string text = scenario_texts(w, kDefaultSeed).front();
  const ScenarioRun with = drive_scenario(text, options_for(w));
  const ScenarioRun without = drive_scenario(text, plain);
  ASSERT_EQ(with.campaign.cells.size(), without.campaign.cells.size());
  for (std::size_t i = 0; i < with.campaign.cells.size(); ++i) {
    EXPECT_GT(with.probes[i].ckpt_bytes, 0u);
    EXPECT_EQ(cell_digest(with.campaign.cells[i].result),
              cell_digest(without.campaign.cells[i].result));
    EXPECT_TRUE(with.campaign.cells[i].result.recovery.enabled);
  }
}

TEST(Seeds, DefaultSeedKeepsTheCommittedScenarios) {
  const Workload w = make_workload("paper-suite");
  for (const Json& doc : w.docs) EXPECT_EQ(reseed(doc, kDefaultSeed).dump(), doc.dump());
}

TEST(Seeds, OtherSeedsShiftEveryCellSeedDeterministically) {
  for (const std::string& name : workload_names()) {
    const Workload w = make_workload(name);
    for (const Json& doc : w.docs) {
      const auto base = gtrix::Scenario::from_json(doc).cells();
      const auto a = gtrix::Scenario::from_json(reseed(doc, 5)).cells();
      const auto b = gtrix::Scenario::from_json(reseed(doc, 5)).cells();
      const auto c = gtrix::Scenario::from_json(reseed(doc, 6)).cells();
      ASSERT_EQ(a.size(), base.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_NE(a[i].config.seed, base[i].config.seed) << name;
        EXPECT_NE(a[i].config.seed, c[i].config.seed) << name;
        EXPECT_EQ(a[i].config.seed, b[i].config.seed) << name;
      }
    }
  }
}

TEST(Expectations, AgreeWithCommittedBenchFiles) {
  const Json expected = read_json(std::string(HOSTBENCH_DIR) + "/expected.json");
  EXPECT_EQ(expected.at("seed").as_u64(), kDefaultSeed);
  EXPECT_EQ(expected.at("workloads").at("grid-sharded").at("scale-grid").at("cells"),
            expected.at("workloads").at("grid-stream").at("scale-grid").at("cells"));
  for (const auto& [scenario, entry] :
       expected.at("workloads").at("paper-suite").as_object()) {
    const Json summary =
        read_json(std::string(HOSTBENCH_REPO_ROOT) + "/BENCH_" + scenario + ".json");
    EXPECT_EQ(entry.at("summary").at("local_skew"), summary.at("local_skew")) << scenario;
    EXPECT_EQ(entry.at("summary").at("global_skew"), summary.at("global_skew")) << scenario;
    EXPECT_EQ(entry.at("cells").size(), static_cast<std::size_t>(summary.at("cells").as_int()));
  }
}

}  // namespace
}  // namespace hostbench
