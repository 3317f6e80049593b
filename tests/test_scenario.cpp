#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "scenario/generators.hpp"
#include "scenario/registry.hpp"

namespace gtrix {
namespace {

// --- enum string round trips -------------------------------------------------

TEST(ScenarioEnums, RoundTripAllValues) {
  for (const Layer0Mode v : {Layer0Mode::kIdealJitter, Layer0Mode::kLinePropagation}) {
    EXPECT_EQ(layer0_mode_from_string(to_string(v)), v);
  }
  for (const FaultKind v : {FaultKind::kCrash, FaultKind::kMuteAfter,
                            FaultKind::kStaticOffset, FaultKind::kSplit, FaultKind::kJitter,
                            FaultKind::kFixedPeriod}) {
    EXPECT_EQ(fault_kind_from_string(to_string(v)), v);
  }
}

TEST(ScenarioEnums, UnknownNameListsValidValues) {
  try {
    (void)layer0_mode_from_string("nope");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'nope'"), std::string::npos) << what;
    EXPECT_NE(what.find("ideal-jitter"), std::string::npos) << what;
    EXPECT_NE(what.find("line-propagation"), std::string::npos) << what;
  }
  try {
    (void)fault_kind_from_string("nope");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'nope'"), std::string::npos) << what;
    EXPECT_NE(what.find("crash"), std::string::npos) << what;
  }
}

// --- ExperimentConfig round trips --------------------------------------------

TEST(ConfigJson, DefaultConfigRoundTrips) {
  const ExperimentConfig config;
  EXPECT_EQ(config_from_json(to_json(config)), config);
}

ExperimentConfig make_exotic_config() {
  ExperimentConfig config;
  config.topology_spec = ComponentSpec::of("cycle");
  config.topology_spec.params.set("reach", 2);
  config.columns = 24;
  config.trim = 1;
  config.layers = 12;
  config.params = Params::with(500.0, 5.0, 1.001);
  config.algorithm_spec = ComponentSpec::of("gradient-simplified");
  config.layer0 = Layer0Mode::kLinePropagation;
  config.layer0_jitter = 3.5;
  config.layer0_offset_by_column = {1.0, -2.0, 0.5};
  config.delay_spec = ComponentSpec::of("column-split");
  config.delay_spec.params.set("split_column", 7);
  config.clock_spec = ComponentSpec::of("alternating");
  config.faults = {
      {3, 4, FaultSpec::crash()},
      {5, 6, FaultSpec::static_offset(-42.0)},
      {7, 2, FaultSpec::split(17.0)},
      {2, 9, FaultSpec::jitter(8.0)},
      {1, 3, FaultSpec::fixed_period(1234.5)},
      {0, 5, FaultSpec::mute_after(11)},
  };
  config.pulses = 77;
  config.self_stabilizing = true;
  config.jump_condition = false;
  config.seed = 987654321;
  config.warmup = 6;
  return config;
}

TEST(ConfigJson, ExoticConfigRoundTripsThroughText) {
  const ExperimentConfig config = make_exotic_config();
  // Full cycle including serialization to text: struct -> Json -> string ->
  // Json -> struct.
  const std::string text = to_json(config).dump(2);
  const ExperimentConfig back = config_from_json(Json::parse(text));
  EXPECT_EQ(back, config);
}

TEST(ConfigJson, EveryFaultKindRoundTrips) {
  for (const FaultKind kind : {FaultKind::kCrash, FaultKind::kMuteAfter,
                               FaultKind::kStaticOffset, FaultKind::kSplit,
                               FaultKind::kJitter, FaultKind::kFixedPeriod}) {
    ExperimentConfig config;
    FaultSpec spec;
    spec.kind = kind;
    spec.offset = kind == FaultKind::kStaticOffset ? -3.25 : 0.0;
    spec.alpha = (kind == FaultKind::kSplit || kind == FaultKind::kJitter) ? 9.5 : 0.0;
    spec.period = kind == FaultKind::kFixedPeriod ? 2100.0 : 0.0;
    spec.after = kind == FaultKind::kMuteAfter ? 4 : 0;
    config.faults = {{2, 3, spec}};
    const ExperimentConfig back = config_from_json(Json::parse(to_json(config).dump()));
    EXPECT_EQ(back, config) << to_string(kind);
  }
}

// --- parser error paths ------------------------------------------------------

TEST(ConfigJson, UnknownKeyRejectedWithPath) {
  const Json j = Json::parse(R"({"colums": 8})");
  try {
    (void)config_from_json(j, "$.config");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("$.config.colums"), std::string::npos)
        << e.what();
  }
}

TEST(ConfigJson, WrongTypeRejectedWithPath) {
  const Json j = Json::parse(R"({"columns": "many"})");
  try {
    (void)config_from_json(j, "$.config");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("$.config.columns"), std::string::npos) << what;
    EXPECT_NE(what.find("int"), std::string::npos) << what;
    EXPECT_NE(what.find("string"), std::string::npos) << what;
  }
}

TEST(ConfigJson, NestedFaultErrorsQualified) {
  const Json j = Json::parse(R"({"faults": [{"kind": "crash"}, {"base": 1}]})");
  try {
    (void)config_from_json(j, "$");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    // The second fault is missing its kind.
    EXPECT_NE(std::string(e.what()).find("$.faults[1]"), std::string::npos) << e.what();
  }
}

TEST(ConfigJson, RangeChecks) {
  EXPECT_THROW((void)config_from_json(Json::parse(R"({"columns": 1})")), JsonError);
  EXPECT_THROW((void)config_from_json(Json::parse(R"({"pulses": 0})")), JsonError);
  EXPECT_THROW((void)config_from_json(Json::parse(R"({"warmup": -1})")), JsonError);
  EXPECT_THROW(
      (void)config_from_json(Json::parse(R"({"random_faults": {"probability": 1.5}})")),
      JsonError);
}

TEST(ConfigJson, GridNodeCountOverflowRejectedWithContext) {
  // 4 columns -> 6 base nodes (line with replicated endpoints); 800M layers
  // pushes layers x base past the uint32 id space. Must fail at config
  // resolution with the shape in the message, not wrap inside a worker.
  try {
    (void)config_from_json(
        Json::parse(R"({"columns": 4, "layers": 800000000, "pulses": 4})"));
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("grid node count"), std::string::npos) << what;
    EXPECT_NE(what.find("800000000"), std::string::npos) << what;
  }
}

// --- scenario documents ------------------------------------------------------

Scenario scenario_from_text(const std::string& text) {
  return Scenario::from_json(Json::parse(text));
}

TEST(Scenario, MinimalDocument) {
  const Scenario s = scenario_from_text(R"({"name": "tiny"})");
  EXPECT_EQ(s.name(), "tiny");
  EXPECT_EQ(s.cell_count(), 1u);
  const auto cells = s.cells();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].label, "base");
  EXPECT_EQ(cells[0].config, ExperimentConfig{});
  EXPECT_FALSE(cells[0].corrupt.enabled);
}

TEST(Scenario, UnknownTopLevelKeyRejected) {
  try {
    (void)scenario_from_text(R"({"name": "x", "sweeps": {}})");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("$.sweeps"), std::string::npos) << e.what();
  }
}

TEST(Scenario, MissingNameRejected) {
  EXPECT_THROW((void)scenario_from_text(R"({"config": {}})"), JsonError);
}

TEST(Scenario, SweepCartesianOrderAndLabels) {
  const Scenario s = scenario_from_text(R"({
    "name": "sweep-test",
    "config": {"pulses": 5},
    "sweep": {"columns": [4, 8], "seed": {"from": 10, "count": 3}}
  })");
  EXPECT_EQ(s.cell_count(), 6u);
  const auto cells = s.cells();
  ASSERT_EQ(cells.size(), 6u);
  // Last axis fastest; labels follow axis order.
  EXPECT_EQ(cells[0].label, "columns=4,seed=10");
  EXPECT_EQ(cells[1].label, "columns=4,seed=11");
  EXPECT_EQ(cells[2].label, "columns=4,seed=12");
  EXPECT_EQ(cells[3].label, "columns=8,seed=10");
  EXPECT_EQ(cells[5].label, "columns=8,seed=12");
  EXPECT_EQ(cells[0].config.columns, 4u);
  EXPECT_EQ(cells[0].config.seed, 10u);
  EXPECT_EQ(cells[5].config.columns, 8u);
  EXPECT_EQ(cells[5].config.seed, 12u);
  // Base config fields flow into every cell.
  for (const auto& cell : cells) EXPECT_EQ(cell.config.pulses, 5);
}

TEST(Scenario, ZeroStepAndDuplicateAxisValuesRejected) {
  // step=0 would make several cells share one label (the JSONL row id).
  EXPECT_THROW((void)scenario_from_text(R"({
    "name": "dup",
    "sweep": {"seed": {"from": 1, "count": 5, "step": 0}}
  })"),
               JsonError);
  EXPECT_THROW((void)scenario_from_text(R"({
    "name": "dup",
    "sweep": {"columns": [8, 16, 8]}
  })"),
               JsonError);
}

TEST(Scenario, NegativeClusteredPositionsRejected) {
  // Negative ints must not silently mean "center"/"third".
  EXPECT_THROW((void)scenario_from_text(R"({
    "name": "neg",
    "config": {"clustered_faults": {"count": 1, "column": -3}}
  })"),
               JsonError);
  EXPECT_THROW((void)scenario_from_text(R"({
    "name": "neg",
    "config": {"clustered_faults": {"count": 1, "start_layer": -2}}
  })"),
               JsonError);
}

TEST(Scenario, RangeAxisWithStep) {
  const Scenario s = scenario_from_text(R"({
    "name": "step",
    "sweep": {"seed": {"from": 0, "count": 3, "step": 5}}
  })");
  const auto cells = s.cells();
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[2].config.seed, 10u);
}

std::string load_error(const char* text) {
  try {
    (void)scenario_from_text(text);
  } catch (const JsonError& e) {
    return e.what();
  }
  return "no error";
}

TEST(Scenario, OversizedOrOverflowingSweepsFailBeforeExpansion) {
  // Each must fail at load time with the offending axis's path, before the
  // axis's values are stored: a range far past the cell cap, an axis
  // product that would wrap size_t (65536^4 == 2^64), and a range whose
  // values leave int64.
  const std::string huge = load_error(R"({
    "name": "huge", "sweep": {"seed": {"from": 1, "count": 4000000000000}}
  })");
  EXPECT_EQ(huge.rfind("$.sweep.seed: ", 0), 0u) << huge;
  EXPECT_NE(huge.find("cap of 1000000 cells"), std::string::npos) << huge;

  const std::string product = load_error(R"({
    "name": "product",
    "sweep": {"seed": {"from": 1, "count": 65536}, "pulses": {"from": 1, "count": 65536},
              "warmup": {"from": 0, "count": 65536}, "trim": {"from": 0, "count": 65536}}
  })");
  EXPECT_EQ(product.rfind("$.sweep.pulses: ", 0), 0u) << product;
  EXPECT_NE(product.find("cap of 1000000 cells"), std::string::npos) << product;

  const std::string wrap = load_error(R"({
    "name": "wrap", "sweep": {"seed": {"from": 9223372036854775000, "count": 2000}}
  })");
  EXPECT_EQ(wrap.rfind("$.sweep.seed: ", 0), 0u) << wrap;
  EXPECT_NE(wrap.find("overflows int64"), std::string::npos) << wrap;

  // Exactly at the cap is admitted, and cell_count() reports it.
  const Scenario at_cap = scenario_from_text(R"({
    "name": "cap",
    "sweep": {"seed": {"from": 1, "count": 1000}, "pulses": {"from": 1, "count": 1000}}
  })");
  EXPECT_EQ(at_cap.cell_count(), kMaxScenarioCells);
}

TEST(Scenario, BadAxisValueFailsAtLoadTime) {
  // "columns" axis with a string value must fail in from_json, not cells().
  EXPECT_THROW((void)scenario_from_text(R"({
    "name": "bad",
    "sweep": {"columns": ["wide"]}
  })"),
               JsonError);
  EXPECT_THROW((void)scenario_from_text(R"({
    "name": "bad",
    "sweep": {"no_such_field": [1]}
  })"),
               JsonError);
  EXPECT_THROW((void)scenario_from_text(R"({
    "name": "bad",
    "sweep": {"columns": []}
  })"),
               JsonError);
}

TEST(Scenario, LayersTrackColumns) {
  const Scenario s = scenario_from_text(R"({
    "name": "tied",
    "config": {"layers": "columns"},
    "sweep": {"columns": [4, 9]}
  })");
  const auto cells = s.cells();
  EXPECT_EQ(cells[0].config.layers, 4u);
  EXPECT_EQ(cells[1].config.layers, 9u);
}

TEST(Scenario, DerivedParamsPerCell) {
  const Scenario s = scenario_from_text(R"({
    "name": "derived",
    "config": {"layers": "columns",
               "params": {"derive": {"u": 10.0, "theta": 1.0005, "safety": 1.1}}},
    "sweep": {"columns": [5, 33]}
  })");
  const auto cells = s.cells();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].config.params, Params::derive_for(4, 10.0, 1.0005, 1.1));
  EXPECT_EQ(cells[1].config.params, Params::derive_for(32, 10.0, 1.0005, 1.1));
  // Larger diameter needs a larger d.
  EXPECT_GT(cells[1].config.params.d, cells[0].config.params.d);
}

TEST(Scenario, MixingDeriveWithExplicitParamsRejected) {
  // Both orders are rejected -- the result must not depend on key order.
  for (const char* params : {R"({"u": 5.0, "derive": {"safety": 1.1}})",
                             R"({"derive": {"safety": 1.1}, "u": 5.0})"}) {
    const std::string text =
        std::string(R"({"name": "mix", "config": {"params": )") + params + "}}";
    EXPECT_THROW((void)scenario_from_text(text), JsonError) << params;
  }
  // Sweeping params.u over a derive base is rejected too (use
  // params.derive.u for that).
  EXPECT_THROW((void)scenario_from_text(R"({
    "name": "mix2",
    "config": {"params": {"derive": {}}},
    "sweep": {"params.u": [5.0, 10.0]}
  })"),
               JsonError);
}

TEST(Scenario, GeneratedFaultSpecsAreCanonical) {
  // Generators only keep the field their kind reads: a generated split
  // fault must not carry the generator's offset, and vice versa.
  const Scenario s = scenario_from_text(R"({
    "name": "canon",
    "config": {"columns": 12, "layers": 12,
               "random_faults": {"probability": 0.05,
                                  "kinds": ["static-offset", "split"],
                                  "offset": 150.0, "alpha": 100.0,
                                  "enforce_one_local": false}}
  })");
  const auto cells = s.cells();
  ASSERT_FALSE(cells[0].config.faults.empty());
  for (const PlacedFault& fault : cells[0].config.faults) {
    if (fault.spec.kind == FaultKind::kSplit) {
      EXPECT_EQ(fault.spec, FaultSpec::split(100.0));
    } else {
      EXPECT_EQ(fault.spec, FaultSpec::static_offset(150.0));
    }
  }
}

TEST(Scenario, Layer0PatternAlternates) {
  const Scenario s = scenario_from_text(R"({
    "name": "fig5ish",
    "config": {"columns": 6, "layer0_pattern": {"amplitude": 10.0}}
  })");
  const auto cells = s.cells();
  const auto& offsets = cells[0].config.layer0_offset_by_column;
  ASSERT_EQ(offsets.size(), 6u);
  EXPECT_DOUBLE_EQ(offsets[0], 5.0);
  EXPECT_DOUBLE_EQ(offsets[1], -5.0);
  EXPECT_DOUBLE_EQ(offsets[4], 5.0);
}

TEST(Scenario, ClusteredFaultsResolveCenter) {
  const Scenario s = scenario_from_text(R"({
    "name": "clustered",
    "config": {"columns": 12, "layers": 16,
               "clustered_faults": {"count": 3, "kind": "split", "alpha": 50.0,
                                     "column": "center", "start_layer": 2, "stride": 1}}
  })");
  const auto cells = s.cells();
  const auto& faults = cells[0].config.faults;
  ASSERT_EQ(faults.size(), 3u);
  // "center" resolves to geometric column columns/2 = 6 (node ids differ:
  // the line's replicated endpoint shifts interior ids by one).
  const BaseGraph base = BaseGraph::line_replicated(12);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(base.column(faults[i].base), 6u);
    EXPECT_EQ(faults[i].layer, 2u + i);
    EXPECT_EQ(faults[i].spec.kind, FaultKind::kSplit);
    EXPECT_DOUBLE_EQ(faults[i].spec.alpha, 50.0);
  }
}

TEST(Scenario, RandomFaultsDeterministicPerSeed) {
  const char* text = R"({
    "name": "random",
    "config": {"columns": 12, "layers": 12,
               "random_faults": {"probability": 0.02,
                                  "kinds": ["crash", "static-offset", "split"],
                                  "offset": 150.0, "alpha": 100.0}},
    "sweep": {"seed": {"from": 1, "count": 4}}
  })";
  const auto a = scenario_from_text(text).cells();
  const auto b = scenario_from_text(text).cells();
  ASSERT_EQ(a.size(), b.size());
  bool any_faults = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].config, b[i].config);  // same faults both expansions
    any_faults = any_faults || !a[i].config.faults.empty();
  }
  EXPECT_TRUE(any_faults);  // p=0.02 over 4 seeds of 144 nodes: ~11 expected
  // Different seeds draw different placements.
  EXPECT_NE(a[0].config.faults, a[1].config.faults);
}

TEST(Scenario, CorruptPlanParsedAndSweepable) {
  const Scenario s = scenario_from_text(R"({
    "name": "stab",
    "config": {"columns": 6, "layers": 4, "pulses": 30, "self_stabilizing": true},
    "corrupt": {"wave": 8, "fraction": 0.5},
    "sweep": {"corrupt.fraction": [0.25, 1.0]}
  })");
  const auto cells = s.cells();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_TRUE(cells[0].corrupt.enabled);
  EXPECT_DOUBLE_EQ(cells[0].corrupt.wave, 8.0);
  EXPECT_DOUBLE_EQ(cells[0].corrupt.fraction, 0.25);
  EXPECT_DOUBLE_EQ(cells[1].corrupt.fraction, 1.0);
}

TEST(Scenario, FromFileReportsPathInErrors) {
  const std::string path = testing::TempDir() + "gtrix_truncated_scenario.json";
  {
    std::ofstream out(path);
    out << R"({"name": "broken", )";  // truncated document
  }
  try {
    (void)Scenario::from_file(path);
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("gtrix_truncated_scenario.json"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
  EXPECT_THROW((void)Scenario::from_file("/nonexistent/nope.json"), JsonError);

  // Errors found only when the cells expand name the file too.
  const std::string cell_path = testing::TempDir() + "gtrix_bad_cell_scenario.json";
  {
    std::ofstream out(cell_path);
    out << R"({"name": "bad-cell", "config": {"columns": 8,
               "clustered_faults": {"count": 1, "column": 20}}})";
  }
  const Scenario bad_cell = Scenario::from_file(cell_path);
  try {
    (void)bad_cell.cells();
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_EQ(std::string(e.what()).rfind(cell_path + ": cell 'base': clustered_faults.column", 0),
              0u)
        << e.what();
  }
  std::remove(cell_path.c_str());
}

TEST(Scenario, FromFileLoadsValidDocument) {
  const std::string path = testing::TempDir() + "gtrix_valid_scenario.json";
  {
    std::ofstream out(path);
    out << R"({"name": "ok", "config": {"columns": 4}, "sweep": {"seed": [1, 2]}})";
  }
  const Scenario s = Scenario::from_file(path);
  EXPECT_EQ(s.name(), "ok");
  EXPECT_EQ(s.cell_count(), 2u);
  std::remove(path.c_str());
}

// --- registry ----------------------------------------------------------------

TEST(Registry, AllBuiltinsExpand) {
  ASSERT_GE(builtin_scenarios().size(), 6u);
  for (const BuiltinInfo& info : builtin_scenarios()) {
    SCOPED_TRACE(std::string(info.name));
    EXPECT_TRUE(is_builtin_scenario(info.name));
    const Scenario scenario = builtin_scenario(info.name);
    EXPECT_EQ(scenario.name(), info.name);
    EXPECT_FALSE(scenario.description().empty());
    const auto cells = scenario.cells();
    // Sweep scenarios must actually expand; only the mega-grid scale
    // scenarios are deliberately single-cell (one cell is already a
    // multi-second run).
    const bool single_cell_scale = std::string(info.name).starts_with("scale-");
    EXPECT_GE(cells.size(), single_cell_scale ? 1u : 2u);
    // Labels are unique within a scenario.
    for (std::size_t i = 0; i < cells.size(); ++i) {
      for (std::size_t j = i + 1; j < cells.size(); ++j) {
        EXPECT_NE(cells[i].label, cells[j].label);
      }
    }
  }
}

TEST(Registry, DocsSurviveTextRoundTrip) {
  for (const BuiltinInfo& info : builtin_scenarios()) {
    SCOPED_TRACE(std::string(info.name));
    const Json doc = builtin_scenario_doc(info.name);
    const Json back = Json::parse(doc.dump(2));
    EXPECT_TRUE(doc == back);
    // The re-parsed document expands to identical configs.
    const auto a = Scenario::from_json(doc).cells();
    const auto b = Scenario::from_json(back).cells();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].config, b[i].config);
      EXPECT_EQ(a[i].label, b[i].label);
      // Every resolved cell survives its own serialization, and to_json is
      // a fixed point: the re-parsed config dumps to the same text.
      const Json emitted = to_json(a[i].config);
      const ExperimentConfig back = config_from_json(emitted);
      EXPECT_EQ(back, a[i].config) << a[i].label;
      EXPECT_EQ(to_json(back).dump(), emitted.dump()) << a[i].label;
    }
  }
}

// Every key of T's field list, nested lists' keys after a dot.
template <class T>
void collect_keys(const std::string& prefix, std::vector<std::string>& keys) {
  for_each_field<T>([&](const auto& f) {
    using M = std::remove_cvref_t<decltype(f.get(std::declval<T&>()))>;
    keys.push_back(prefix + f.key);
    if constexpr (Listed<M>) {
      collect_keys<M>(keys.back() + ".", keys);
    } else if constexpr (requires { typename M::value_type; }) {  // optional, vector
      if constexpr (Listed<typename M::value_type>) {
        collect_keys<typename M::value_type>(keys.back() + ".", keys);
      }
    }
  });
}

TEST(Registry, EveryConfigKeyIsDocumented) {
  // The "config" section of docs/scenarios.md must name every key of the
  // ExperimentConfig and generator field lists, quoted or in backticks.
  std::ifstream in(GTRIX_DOCS_DIR "/scenarios.md");
  ASSERT_TRUE(in) << GTRIX_DOCS_DIR "/scenarios.md";
  std::ostringstream text;
  text << in.rdbuf();
  const std::string doc = text.str();
  const std::size_t begin = doc.find("## `config` fields");
  ASSERT_NE(begin, std::string::npos);
  const std::string section = doc.substr(begin, doc.find("\n## ", begin + 1) - begin);
  std::vector<std::string> keys;
  collect_keys<ExperimentConfig>("", keys);
  collect_keys<ConfigGenerators>("", keys);
  EXPECT_GT(keys.size(), 40u);
  for (const std::string& key : keys) {
    const std::string leaf = key.substr(key.rfind('.') + 1);
    EXPECT_TRUE(section.find("`" + leaf + "`") != std::string::npos ||
                section.find("\"" + leaf + "\"") != std::string::npos)
        << key;
  }
}

TEST(Registry, BuiltinsMatchScenarioFiles) {
  // The builtins are scenarios/*.json: each file holds its builtin's
  // document under the builtin's name, byte for byte in canonical form
  // (dump(2) plus a newline), and no builtin lacks a file.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(GTRIX_SCENARIO_DIR)) {
    if (entry.path().extension() != ".json") continue;
    ++files;
    const std::string stem = entry.path().stem().string();
    SCOPED_TRACE(stem);
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    EXPECT_EQ(builtin_scenario_doc(stem).dump(2) + "\n", bytes.str());
  }
  EXPECT_EQ(builtin_scenarios().size(), files);
}

TEST(Registry, UnknownNameListsBuiltins) {
  EXPECT_FALSE(is_builtin_scenario("no-such"));
  try {
    (void)builtin_scenario("no-such");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("quickstart-grid"), std::string::npos)
        << e.what();
  }
}

TEST(Registry, PaperScenariosCoverHeadlineSetups) {
  for (const char* name : {"table1-comparison", "thm11-logd", "thm12-worstcase-faults",
                           "thm13-random-faults", "fig5-jump-ablation",
                           "thm16-stabilization"}) {
    EXPECT_TRUE(is_builtin_scenario(name)) << name;
  }
  // Spot-check resolved semantics.
  const auto table1 = builtin_scenario("table1-comparison").cells();
  bool saw_trix_crash = false;
  for (const auto& cell : table1) {
    if (cell.config.algorithm_spec.kind == "trix-naive" && !cell.config.faults.empty()) {
      saw_trix_crash = true;
      EXPECT_EQ(cell.config.faults[0].spec.kind, FaultKind::kCrash);
    }
    const ComponentSpec delays = resolve_components(cell.config).delay;
    EXPECT_EQ(delays.kind, "column-split");
    EXPECT_EQ(delays.params.at("split_column").as_int(), cell.config.columns / 2);
  }
  EXPECT_TRUE(saw_trix_crash);

  const auto stab = builtin_scenario("thm16-stabilization").cells();
  for (const auto& cell : stab) {
    EXPECT_TRUE(cell.corrupt.enabled);
    EXPECT_TRUE(cell.config.self_stabilizing);
  }
}

}  // namespace
}  // namespace gtrix
