// Differential battery for realignment under corruption-anchored streaming.
//
// The contract (docs/scaling.md, "Realignment at scale"): corrupt cells do
// not force full-trace recording. Under streaming recording a corrupt cell
// keeps every pulse time (but no iteration records), so realignment, the
// post-recovery skew window and the recovery-time scan replay exactly the
// trace full-trace recording replays, and the results are BIT-identical to
// it.
//
// Coverage here:
//  * every corrupt builtin variant (thm12, thm13, thm16, fig5 with the
//    Theorem 1.6 corruption plan) under streaming recording x shards
//    {1, 2, 4} x threads {1, 4}, against a full-trace baseline;
//  * JSONL byte-identity across every (shards, threads) combination;
//  * a randomized (deterministically seeded) fuzz sweep over corruption
//    wave, fraction and fault density: bit-equal to full on every draw.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/campaign.hpp"
#include "scenario/registry.hpp"

namespace gtrix {
namespace {

/// Corrupt variants of the fault-story builtins. thm16 ships a corruption
/// plan; thm12/thm13/fig5 get the same Theorem 1.6 treatment layered onto
/// their fault models (corruption + clustered faults, corruption + random
/// faults, corruption + oscillatory start). Sweeps are trimmed and pulse
/// budgets extended so recovery (corrupt_wave + layers + 6) fits on every
/// variant at differential-test runtime.
Json corrupt_variant_doc(const std::string& name) {
  Json doc = builtin_scenario_doc(name);
  Json config = doc.at("config");
  config.set("self_stabilizing", true);
  Json sweep = Json::object();
  if (name == "thm12-worstcase-faults") {
    config.set("pulses", 40);
    sweep.set("clustered_faults.count", Json::parse("[0, 2]"));
  } else if (name == "thm13-random-faults") {
    config.set("pulses", 40);
    sweep.set("random_faults.probability", Json::parse("[0.0, 0.03125]"));
  } else if (name == "fig5-jump-ablation") {
    config.set("layers", 16);
    config.set("pulses", 40);
    sweep.set("jump_condition", Json::parse("[true, false]"));
  } else if (name == "thm16-stabilization") {
    sweep.set("layers", Json::parse("[6, 14]"));
  } else {
    throw std::logic_error("no corrupt variant for " + name);
  }
  doc.set("config", std::move(config));
  doc.set("sweep", std::move(sweep));
  if (!doc.contains("corrupt")) {
    Json corrupt = Json::object();
    corrupt.set("wave", 6.0);
    corrupt.set("fraction", 1.0);
    doc.set("corrupt", std::move(corrupt));
  }
  doc.set("name", name + std::string("-corrupt"));
  return doc;
}

/// Bitwise equality including NaN (same missing-pair markers in the same
/// places): NaN == NaN here, unlike operator==.
void expect_same_series(const std::vector<double>& a, const std::vector<double>& b,
                        const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::isnan(a[i]) || std::isnan(b[i])) {
      EXPECT_TRUE(std::isnan(a[i]) && std::isnan(b[i])) << "wave offset " << i;
    } else {
      EXPECT_EQ(a[i], b[i]) << "wave offset " << i;
    }
  }
}

/// Full bit-identity of everything a corrupt cell measures: realigned skew,
/// realignment stats, the recovery scan, and the engine-invariant counters
/// (logical events, not the shard-dependent raw execution count).
void expect_same_measurement(const ExperimentResult& full, const ExperimentResult& other,
                             const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(full.skew.max_intra, other.skew.max_intra);
  EXPECT_EQ(full.skew.max_inter, other.skew.max_inter);
  EXPECT_EQ(full.skew.local_skew, other.skew.local_skew);
  EXPECT_EQ(full.skew.global_skew, other.skew.global_skew);
  EXPECT_EQ(full.skew.intra_by_layer, other.skew.intra_by_layer);
  EXPECT_EQ(full.skew.inter_by_layer, other.skew.inter_by_layer);
  EXPECT_EQ(full.skew.spread_by_layer, other.skew.spread_by_layer);
  EXPECT_EQ(full.skew.sigma_lo, other.skew.sigma_lo);
  EXPECT_EQ(full.skew.sigma_hi, other.skew.sigma_hi);
  EXPECT_EQ(full.skew.pairs_checked, other.skew.pairs_checked);
  EXPECT_EQ(full.skew.pairs_skipped, other.skew.pairs_skipped);
  EXPECT_EQ(full.skew.deviations.count, other.skew.deviations.count);
  EXPECT_EQ(full.skew.deviations.mean, other.skew.deviations.mean);
  EXPECT_EQ(full.skew.deviations.p50, other.skew.deviations.p50);
  EXPECT_EQ(full.skew.deviations.p90, other.skew.deviations.p90);
  EXPECT_EQ(full.skew.deviations.p99, other.skew.deviations.p99);
  EXPECT_EQ(full.realign.nodes_shifted, other.realign.nodes_shifted);
  EXPECT_EQ(full.realign.max_abs_shift, other.realign.max_abs_shift);
  EXPECT_EQ(full.recovery.enabled, other.recovery.enabled);
  EXPECT_EQ(full.recovery.corrupt_wave, other.recovery.corrupt_wave);
  EXPECT_EQ(full.recovery.scan_hi, other.recovery.scan_hi);
  EXPECT_EQ(full.recovery.threshold, other.recovery.threshold);
  EXPECT_EQ(full.recovery.recovered, other.recovery.recovered);
  EXPECT_EQ(full.recovery.recovered_wave, other.recovery.recovered_wave);
  expect_same_series(full.recovery.local_by_wave, other.recovery.local_by_wave,
                     where + " recovery series");
  EXPECT_EQ(full.counters.iterations, other.counters.iterations);
  EXPECT_EQ(full.counters.watchdog_resets, other.counters.watchdog_resets);
  EXPECT_EQ(full.counters.messages_sent, other.counters.messages_sent);
  EXPECT_EQ(full.counters.messages_delivered, other.counters.messages_delivered);
  EXPECT_EQ(full.counters.logical_events(), other.counters.logical_events());
  EXPECT_EQ(full.thm11_bound, other.thm11_bound);
  EXPECT_EQ(full.global_bound, other.global_bound);
  EXPECT_EQ(full.diameter, other.diameter);
}

TEST(CorruptStreamingRealign, BitIdenticalToFullTraceOnEveryCorruptBuiltin) {
  const char* const kScenarios[] = {"thm12-worstcase-faults", "thm13-random-faults",
                                    "fig5-jump-ablation", "thm16-stabilization"};
  for (const char* name : kScenarios) {
    SCOPED_TRACE(name);
    const Scenario scenario = Scenario::from_json(corrupt_variant_doc(name));
    CampaignOptions baseline_options;
    baseline_options.threads = 2;
    const CampaignResult baseline = run_campaign(scenario, baseline_options);
    for (const CampaignCell& cell : baseline.cells) {
      ASSERT_TRUE(cell.corrupt.enabled);
      ASSERT_TRUE(cell.result.recovery.enabled) << cell.label;
    }
    CampaignOptions options;
    options.recording_override = ComponentSpec::of("streaming");
    std::string reference_jsonl;
    for (const std::uint32_t shards : {1u, 2u, 4u}) {
      for (const unsigned threads : {1u, 4u}) {
        const std::string where =
            std::string(name) + " shards=" + std::to_string(shards) +
            " threads=" + std::to_string(threads);
        options.shards = shards;
        options.threads = threads;
        const CampaignResult bounded = run_campaign(scenario, options);
        ASSERT_EQ(baseline.cells.size(), bounded.cells.size());
        for (std::size_t i = 0; i < baseline.cells.size(); ++i) {
          expect_same_measurement(baseline.cells[i].result, bounded.cells[i].result,
                                  where + " cell " + baseline.cells[i].label);
        }
        // Byte-identity of the emitted JSONL across every engine shape.
        const std::string jsonl = campaign_jsonl(bounded);
        if (reference_jsonl.empty()) {
          reference_jsonl = jsonl;
          EXPECT_NE(jsonl.find("\"recovery\""), std::string::npos) << where;
        } else {
          EXPECT_EQ(reference_jsonl, jsonl) << where;
        }
      }
    }
  }
}

TEST(CorruptStreamingRealign, FuzzedCorruptionMatchesFull) {
  // Deterministically seeded sweep over corruption wave, corrupted
  // fraction and random-fault density, every trial under streaming
  // recording. Each trial must be bit-identical to full-trace recording.
  Rng fuzz(0xC0FFEE);
  for (int trial = 0; trial < 12; ++trial) {
    const std::int64_t wave = fuzz.uniform_int(5, 12);
    const double fraction = 0.25 + 0.25 * static_cast<double>(fuzz.uniform_int(0, 3));
    const double density = 0.02 * static_cast<double>(fuzz.uniform_int(0, 2));
    const std::string where = "trial " + std::to_string(trial) + ": wave " +
                              std::to_string(wave) + " fraction " +
                              std::to_string(fraction) + " density " +
                              std::to_string(density);
    SCOPED_TRACE(where);

    Json config_obj = Json::parse(R"({
      "columns": 8, "layers": 6, "pulses": 36,
      "self_stabilizing": true,
      "random_faults": {"probability": 0.0, "kinds": ["crash"]}
    })");
    config_obj.set("seed", 40 + trial);
    Json faults = config_obj.at("random_faults");
    faults.set("probability", density);
    config_obj.set("random_faults", std::move(faults));

    CorruptPlan corrupt;
    corrupt.enabled = true;
    corrupt.wave = static_cast<double>(wave);
    corrupt.fraction = fraction;

    const ExperimentConfig full_config = config_from_json(config_obj);
    ExperimentConfig streaming_config = full_config;
    streaming_config.recording_spec = ComponentSpec::of("streaming");
    expect_same_measurement(run_cell(full_config, corrupt), run_cell(streaming_config, corrupt),
                            where);
  }
}

}  // namespace
}  // namespace gtrix
