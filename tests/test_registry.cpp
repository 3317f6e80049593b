// Tests for the pluggable component registries: schema validation,
// duplicate/unknown-kind rejection, the "center" split generator, the
// torus topology and drift-walk clock model shipped through the API, and
// the capability checks that turned silent fault/corruption no-ops into
// hard config errors.
#include "registry/registry.hpp"

#include <gtest/gtest.h>

#include <string>

#include "baseline/lw_grid.hpp"
#include "core/node_state.hpp"
#include "registry/algorithm.hpp"
#include "registry/clock_model.hpp"
#include "registry/delay.hpp"
#include "registry/describe.hpp"
#include "registry/topology.hpp"
#include "runner/campaign.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"

namespace gtrix {
namespace {

std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const JsonError& e) {
    return e.what();
  }
  return "";
}

// --- registry mechanics ------------------------------------------------------

TEST(Registry, DuplicateRegistrationIsRejected) {
  ComponentRegistry<TopologyProvider> reg("base graph");
  reg.add("dup", "first", {}, [](const ComponentSpec&) {
    return std::shared_ptr<const TopologyProvider>();
  });
  try {
    reg.add("dup", "second", {}, [](const ComponentSpec&) {
      return std::shared_ptr<const TopologyProvider>();
    });
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate base graph registration 'dup'"),
              std::string::npos)
        << e.what();
  }
}

TEST(Registry, BadSchemaDefaultIsRejectedAtRegistration) {
  ComponentRegistry<TopologyProvider> reg("base graph");
  EXPECT_THROW(reg.add("bad", "default type mismatch",
                       {{"n", ParamType::kInt, Json("three"), ""}},
                       [](const ComponentSpec&) {
                         return std::shared_ptr<const TopologyProvider>();
                       }),
               JsonError);
}

TEST(Registry, UnknownKindListsValidKinds) {
  const std::string what =
      error_of([] { topology_registry().canonicalize(ComponentSpec::of("moebius")); });
  EXPECT_NE(what.find("unknown base graph 'moebius'"), std::string::npos) << what;
  EXPECT_NE(what.find("line-replicated"), std::string::npos) << what;
  EXPECT_NE(what.find("torus"), std::string::npos) << what;
}

TEST(Registry, UnknownParameterListsSchema) {
  ComponentSpec spec = ComponentSpec::of("torus");
  spec.params.set("cols", 4);
  const std::string what = error_of([&] { topology_registry().canonicalize(spec); });
  EXPECT_NE(what.find("unknown parameter 'cols' for base graph 'torus'"), std::string::npos)
      << what;
  EXPECT_NE(what.find("rows"), std::string::npos) << what;
}

TEST(Registry, ParameterTypeMismatchNamesTypes) {
  ComponentSpec spec = ComponentSpec::of("torus");
  spec.params.set("rows", "four");
  const std::string what = error_of([&] { topology_registry().canonicalize(spec); });
  EXPECT_NE(what.find("parameter 'rows' of base graph 'torus'"), std::string::npos) << what;
  EXPECT_NE(what.find("expected int, got string"), std::string::npos) << what;
}

TEST(Registry, CanonicalizeFillsDefaultsInSchemaOrder) {
  const ComponentSpec canonical =
      clock_model_registry().canonicalize(ComponentSpec::of("drift-walk"));
  EXPECT_EQ(canonical.params.at("interval_waves").as_double(), 1.0);
  EXPECT_EQ(canonical.params.at("step").as_double(), 0.5);
  // Spelled-out defaults canonicalize to the same spec.
  ComponentSpec spelled = ComponentSpec::of("drift-walk");
  spelled.params.set("step", 0.5);
  EXPECT_EQ(clock_model_registry().canonicalize(spelled), canonical);
}

TEST(Registry, FactoryValidatesParameterRanges) {
  ComponentSpec spec = ComponentSpec::of("torus");
  spec.params.set("rows", 2);
  EXPECT_THROW((void)topology_registry().create(spec), JsonError);
  ComponentSpec walk = ComponentSpec::of("drift-walk");
  walk.params.set("step", 1.5);
  EXPECT_THROW((void)clock_model_registry().create(walk), JsonError);
}

TEST(Registry, DescribeEnumeratesAllDimensions) {
  bool saw_torus = false, saw_drift = false, saw_lw = false, saw_split = false;
  for (const ComponentDesc& desc : all_component_descs()) {
    if (desc.kind == "torus") {
      saw_torus = true;
      EXPECT_EQ(desc.config_key, "base_graph");
      ASSERT_EQ(desc.params.size(), 1u);
      EXPECT_EQ(desc.params[0].name, "rows");
    }
    if (desc.kind == "drift-walk") saw_drift = true;
    if (desc.kind == "lynch-welch") saw_lw = true;
    if (desc.kind == "column-split") saw_split = true;
  }
  EXPECT_TRUE(saw_torus && saw_drift && saw_lw && saw_split);
}

// --- torus topology ----------------------------------------------------------

TEST(Torus, StructureIsAWraparoundGrid) {
  const BaseGraph g = BaseGraph::torus(3, 6);
  EXPECT_EQ(g.node_count(), 18u);
  EXPECT_EQ(g.column_count(), 6u);
  EXPECT_EQ(g.min_degree(), 4u);
  EXPECT_EQ(g.max_degree(), 4u);
  EXPECT_EQ(g.edge_count(), 36u);  // 2 edges per node
  EXPECT_EQ(g.diameter(), 4u);     // floor(3/2) + floor(6/2)
  for (std::uint32_t c = 0; c < 6; ++c) {
    EXPECT_EQ(g.nodes_in_column(c).size(), 3u);
  }
  // Wraparound adjacency in both dimensions.
  EXPECT_TRUE(g.has_edge(0, 5));       // (0,0) -- (0,5)
  EXPECT_TRUE(g.has_edge(0, 12));      // (0,0) -- (2,0)
  EXPECT_FALSE(g.has_edge(0, 7));      // (0,0) -- (1,1): diagonal
}

TEST(Torus, RejectsDegenerateDimensions) {
  EXPECT_THROW((void)BaseGraph::torus(2, 6), std::logic_error);
  EXPECT_THROW((void)BaseGraph::torus(3, 2), std::logic_error);
}

TEST(Torus, GradientExperimentRunsWithinBounds) {
  ExperimentConfig config;
  config.topology_spec = ComponentSpec::of("torus");
  config.topology_spec.params.set("rows", 4);
  config.columns = 5;
  config.layers = 6;
  config.pulses = 8;
  const ExperimentResult result = run_cell(config);
  EXPECT_EQ(result.diameter, 4u);
  EXPECT_GT(result.counters.iterations, 0u);
  EXPECT_LE(result.skew.max_intra, result.thm11_bound);
}

// --- drift-walk clock model --------------------------------------------------

TEST(DriftWalk, RatesStayInsideTheDriftBand) {
  ComponentSpec spec = ComponentSpec::of("drift-walk");
  spec.params.set("interval_waves", 0.5);
  const auto provider = clock_model_registry().create(spec);
  ClockContext ctx;
  ctx.params = Params::with(1000.0, 10.0, 1.0005);
  ctx.horizon = 40.0 * ctx.params.lambda;
  Rng rng(7);
  const HardwareClock clock = provider->make(ctx, rng);
  EXPECT_GE(clock.min_rate(), 1.0);
  EXPECT_LE(clock.max_rate(), ctx.params.theta);
  // The walk actually moves: over 80 segments the rate is not constant.
  EXPECT_GT(clock.max_rate() - clock.min_rate(), 0.0);
  // Clock stays invertible along the schedule.
  for (const double t : {0.0, 999.0, 12345.6, 71111.1}) {
    EXPECT_NEAR(clock.to_real(clock.to_local(t)), t, 1e-6);
  }
}

TEST(DriftWalk, DeterministicForSameSeed) {
  const auto provider = clock_model_registry().create(ComponentSpec::of("drift-walk"));
  ClockContext ctx;
  ctx.params = Params::with(1000.0, 10.0, 1.0005);
  ctx.horizon = 20.0 * ctx.params.lambda;
  Rng a(42), b(42);
  const HardwareClock ca = provider->make(ctx, a);
  const HardwareClock cb = provider->make(ctx, b);
  for (const double t : {0.0, 5000.0, 17500.0, 39999.0}) {
    EXPECT_EQ(ca.to_local(t), cb.to_local(t));
  }
}

// --- JSON round trips of the new components ----------------------------------

TEST(ComponentJson, TorusAndDriftWalkRoundTripThroughText) {
  ExperimentConfig config;
  config.topology_spec = ComponentSpec::of("torus");
  config.topology_spec.params.set("rows", 5);
  config.clock_spec = ComponentSpec::of("drift-walk");
  config.clock_spec.params.set("step", 0.25);
  config.algorithm_spec = ComponentSpec::of("lynch-welch");
  config.columns = 7;
  config.layers = 4;
  const std::string text = to_json(config).dump(2);
  const ExperimentConfig back = config_from_json(Json::parse(text));
  EXPECT_EQ(back, config);
  // Non-default params survive as object syntax, defaults collapse to kind
  // strings elsewhere.
  EXPECT_NE(text.find("\"kind\": \"torus\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"rows\": 5"), std::string::npos) << text;
  EXPECT_NE(text.find("\"step\": 0.25"), std::string::npos) << text;
}

TEST(ComponentJson, LegacyParamKeyReachesAnObjectFormSpec) {
  // The "center" generator must land in the column-split spec of every
  // cell, at that cell's columns / 2, instead of being silently ignored
  // (which would emit identical cells under distinct sweep labels).
  Json doc = Json::parse(R"({
    "name": "center-split",
    "config": {"delay_split_column": "center", "delay_model": {"kind": "column-split"}},
    "sweep": {"columns": [8, 10]}
  })");
  const auto cells = Scenario::from_json(doc).cells();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(resolve_components(cells[0].config).delay.params.at("split_column").as_int(), 4);
  EXPECT_EQ(resolve_components(cells[1].config).delay.params.at("split_column").as_int(), 5);

  // On a kind that cannot take it, the generator is a config error --
  // whether the kind was selected explicitly or left at the default.
  const std::string what = error_of([] {
    (void)config_from_json(Json::parse(
        R"({"delay_model": "all-max", "delay_split_column": "center", "columns": 6})"));
  });
  EXPECT_NE(what.find("'delay_split_column' has no effect on delay model 'all-max'"),
            std::string::npos)
      << what;
  const std::string on_default = error_of([] {
    (void)config_from_json(Json::parse(R"({"delay_split_column": "center", "columns": 6})"));
  });
  EXPECT_NE(on_default.find("'delay_split_column' has no effect on delay model 'uniform-random'"),
            std::string::npos)
      << on_default;

  // A fixed split column is the spec's own parameter, not the generator's.
  const std::string fixed = error_of([] {
    (void)config_from_json(
        Json::parse(R"({"delay_model": "column-split", "delay_split_column": 3})"));
  });
  EXPECT_NE(fixed.find("$.delay_split_column: expected \"center\""), std::string::npos) << fixed;
}

TEST(ComponentJson, LegacyKeyConflictingWithExplicitSpecParamIsAnError) {
  // The "center" generator vs a swept 'delay_model.split_column' axis:
  // erroring beats the generator silently clobbering every swept cell.
  Json doc = Json::parse(R"({
    "name": "conflict",
    "config": {"delay_model": "column-split", "delay_split_column": "center", "columns": 9},
    "sweep": {"delay_model.split_column": [1, 2, 3]}
  })");
  const Scenario scenario = Scenario::from_json(doc);
  const std::string what = error_of([&] { (void)scenario.cells(); });
  EXPECT_NE(what.find("'delay_split_column' conflicts"), std::string::npos) << what;

  const std::string object = error_of([] {
    (void)config_from_json(Json::parse(
        R"({"delay_model": {"kind": "column-split", "split_column": 3},
            "delay_split_column": "center", "columns": 9})"));
  });
  EXPECT_NE(object.find("'delay_split_column' conflicts"), std::string::npos) << object;
}

TEST(ComponentJson, WholeComponentKeyCannotClobberDottedParams) {
  // A whole-component axis declared AFTER a dotted parameter axis would
  // silently reset the swept parameter each cell; reject it.
  Json doc = Json::parse(R"({
    "name": "clobber",
    "config": {"base_graph": "cycle", "columns": 9},
    "sweep": {
      "base_graph.reach": [1, 2],
      "base_graph": [{"kind": "cycle"}]
    }
  })");
  const Scenario bad = Scenario::from_json(doc);
  const std::string what = error_of([&] { (void)bad.cells(); });
  EXPECT_NE(what.find("would overwrite parameters"), std::string::npos) << what;

  // The other order is fine: whole component first, parameters refined after.
  Json ok = Json::parse(R"({
    "name": "refine",
    "config": {"base_graph": "cycle", "columns": 9},
    "sweep": {
      "base_graph": [{"kind": "cycle"}],
      "base_graph.reach": [1, 2]
    }
  })");
  const auto cells = Scenario::from_json(ok).cells();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(resolve_components(cells[0].config).topology.params.at("reach").as_int(), 1);
  EXPECT_EQ(resolve_components(cells[1].config).topology.params.at("reach").as_int(), 2);
}

TEST(ComponentJson, BareKindStringAndObjectFormParseAlike) {
  const ExperimentConfig a =
      config_from_json(Json::parse(R"({"base_graph": "torus", "columns": 6})"));
  const ExperimentConfig b =
      config_from_json(Json::parse(R"({"base_graph": {"kind": "torus", "rows": 3},
                                       "columns": 6})"));
  EXPECT_EQ(a, b);
}

TEST(ComponentJson, UnknownKindAndParamErrorsArePathQualified) {
  const std::string unknown = error_of([] {
    (void)config_from_json(Json::parse(R"({"base_graph": "moebius"})"));
  });
  EXPECT_NE(unknown.find("$.base_graph"), std::string::npos) << unknown;
  EXPECT_NE(unknown.find("unknown base graph 'moebius'"), std::string::npos) << unknown;

  const std::string badparam = error_of([] {
    (void)config_from_json(
        Json::parse(R"({"clock_model": {"kind": "drift-walk", "stp": 0.1}})"));
  });
  EXPECT_NE(badparam.find("$.clock_model"), std::string::npos) << badparam;
  EXPECT_NE(badparam.find("unknown parameter 'stp'"), std::string::npos) << badparam;
}

// --- capability checks (previously silent no-ops) ----------------------------

TEST(Caps, SendFaultOnNaiveTrixIsAConfigError) {
  const std::string what = error_of([] {
    (void)config_from_json(Json::parse(R"({
      "algorithm": "trix-naive",
      "faults": [{"base": 2, "layer": 3, "kind": "split", "alpha": 50.0}]
    })"));
  });
  EXPECT_NE(what.find("$"), std::string::npos) << what;
  EXPECT_NE(what.find("'trix-naive'"), std::string::npos) << what;
  EXPECT_NE(what.find("split"), std::string::npos) << what;
  EXPECT_NE(what.find("crash, fixed-period"), std::string::npos) << what;
}

TEST(Caps, CrashFaultOnNaiveTrixRemainsAllowed) {
  const ExperimentConfig config = config_from_json(Json::parse(R"({
    "algorithm": "trix-naive",
    "faults": [{"base": 2, "layer": 3, "kind": "crash"}]
  })"));
  EXPECT_EQ(config.faults.size(), 1u);
}

TEST(Caps, AnyFaultOnLynchWelchIsAConfigError) {
  const std::string what = error_of([] {
    (void)config_from_json(Json::parse(R"({
      "algorithm": "lynch-welch",
      "faults": [{"base": 2, "layer": 3, "kind": "crash"}]
    })"));
  });
  EXPECT_NE(what.find("'lynch-welch'"), std::string::npos) << what;
}

TEST(Caps, SilentLayer0FaultFollowsTheSameRule) {
  // A layer-0 crash starves layer-1 successors just like any other silent
  // node: rejected for lynch-welch, fine for algorithms that tolerate
  // silent predecessors.
  const std::string what = error_of([] {
    (void)config_from_json(Json::parse(R"({
      "algorithm": "lynch-welch",
      "faults": [{"base": 1, "layer": 0, "kind": "crash"}]
    })"));
  });
  EXPECT_NE(what.find("'lynch-welch'"), std::string::npos) << what;

  const ExperimentConfig ok = config_from_json(Json::parse(R"({
    "algorithm": "trix-naive",
    "faults": [{"base": 1, "layer": 0, "kind": "crash"}]
  })"));
  EXPECT_EQ(ok.faults.size(), 1u);
}

TEST(Caps, UnrealizableLayer0FaultKindsAreConfigErrors) {
  // Ideal mode can realize crash and static-offset on layer 0; anything
  // else would be a silent no-op and is rejected.
  const std::string what = error_of([] {
    (void)config_from_json(Json::parse(R"({
      "faults": [{"base": 1, "layer": 0, "kind": "split", "alpha": 40.0}]
    })"));
  });
  EXPECT_NE(what.find("layer-0 faults"), std::string::npos) << what;
  EXPECT_NE(what.find("'crash' and 'static-offset'"), std::string::npos) << what;

  const ExperimentConfig ok = config_from_json(Json::parse(R"({
    "faults": [{"base": 1, "layer": 0, "kind": "static-offset", "offset": 25.0}]
  })"));
  EXPECT_EQ(ok.faults.size(), 1u);

  // Line propagation supports crash only.
  const std::string line = error_of([] {
    (void)config_from_json(Json::parse(R"({
      "layer0_mode": "line-propagation",
      "faults": [{"base": 1, "layer": 0, "kind": "static-offset", "offset": 25.0}]
    })"));
  });
  EXPECT_NE(line.find("'crash' only"), std::string::npos) << line;
}

TEST(RegistryScenario, TopologyShapeMismatchFailsWithPathContext) {
  // cycle_wide needs columns > 2*reach; the mismatch must surface at
  // config resolution with context, not as a raw logic_error in a worker.
  const std::string what = error_of([] {
    (void)config_from_json(Json::parse(R"({
      "base_graph": {"kind": "cycle", "reach": 8},
      "columns": 12
    })"));
  });
  EXPECT_NE(what.find("invalid topology"), std::string::npos) << what;
  EXPECT_NE(what.find("2*reach"), std::string::npos) << what;
}

TEST(Caps, CorruptPlanOnNaiveTrixIsAConfigError) {
  Json doc = Json::parse(R"({
    "name": "bad-corrupt",
    "config": {"algorithm": "trix-naive", "columns": 6, "layers": 4, "pulses": 30},
    "corrupt": {"wave": 5, "fraction": 0.5}
  })");
  const Scenario scenario = Scenario::from_json(doc);
  const std::string what = error_of([&] { (void)scenario.cells(); });
  EXPECT_NE(what.find("corrupt"), std::string::npos) << what;
  EXPECT_NE(what.find("'trix-naive'"), std::string::npos) << what;
}

TEST(Caps, DirectWorldCorruptionIsAHardError) {
  ExperimentConfig config;
  config.algorithm_spec = ComponentSpec::of("trix-naive");
  config.columns = 4;
  config.layers = 3;
  config.pulses = 4;
  World world(config);
  Rng rng(1);
  EXPECT_THROW(world.corrupt_fraction(0.5, rng), std::logic_error);
}

// --- lynch-welch on the grid -------------------------------------------------

TEST(LynchWelchGrid, PredecessorRunningTwoWavesAheadDoesNotStallTheNode) {
  // Regression: the post-fire drain must keep a predecessor's SECOND queued
  // pulse for the wave after next instead of dropping it (which would leave
  // that wave permanently incomplete and silence the node forever).
  Simulator sim;
  Network net(sim);
  const NetNodeId a = net.add_node();
  const NetNodeId b = net.add_node();
  const NetNodeId lw = net.add_node();
  LwSoa soa;
  const std::vector<NetNodeId> preds{a, b};
  LynchWelchGridNode node(sim, net, lw, HardwareClock(1.0, 0.0), preds,
                          Params::with(1000.0, 10.0, 1.0005), 0, nullptr, soa);
  net.set_sink(lw, &node);
  // Wave 0 completes; A then runs two waves ahead before the node fires.
  net.inject(a, lw, Pulse{0}, 1.0);
  net.inject(b, lw, Pulse{0}, 2.0);
  net.inject(a, lw, Pulse{1}, 3.0);
  net.inject(a, lw, Pulse{2}, 4.0);
  net.inject(b, lw, Pulse{1}, 1500.0);
  net.inject(b, lw, Pulse{2}, 2600.0);
  sim.run_all();
  EXPECT_EQ(node.pulses_forwarded(), 3u);
}

TEST(LynchWelchGrid, RunsFaultFreeAndForwardsEveryWave) {
  ExperimentConfig config;
  config.algorithm_spec = ComponentSpec::of("lynch-welch");
  config.columns = 6;
  config.layers = 5;
  config.pulses = 8;
  const ExperimentResult result = run_cell(config);
  EXPECT_GT(result.counters.messages_sent, 0u);
  EXPECT_GT(result.skew.local_skew, 0.0);
  EXPECT_LE(result.skew.local_skew, result.global_bound);
}

// --- scenario + campaign integration -----------------------------------------

TEST(RegistryScenario, TorusSmokeExpandsAndSweepsComponentParams) {
  const Scenario scenario = builtin_scenario("torus-smoke");
  const auto cells = scenario.cells();
  ASSERT_EQ(cells.size(), 6u);
  const ResolvedComponents first = resolve_components(cells.front().config);
  EXPECT_EQ(first.topology.kind, "torus");
  EXPECT_EQ(first.clock.kind, "drift-walk");
  EXPECT_EQ(first.clock.params.at("interval_waves").as_double(), 1.0);
  const ResolvedComponents last = resolve_components(cells.back().config);
  EXPECT_EQ(last.clock.params.at("interval_waves").as_double(), 4.0);
}

TEST(RegistryScenario, DottedComponentAxisValidatesAtLoadTime) {
  Json doc = Json::parse(R"({
    "name": "bad-axis",
    "config": {"base_graph": "torus", "columns": 6},
    "sweep": {"base_graph.rowz": [3, 4]}
  })");
  const std::string what = error_of([&] { (void)Scenario::from_json(doc); });
  EXPECT_NE(what.find("unknown parameter 'rowz'"), std::string::npos) << what;
}

TEST(RegistryScenario, TorusSmokeCampaignIsThreadCountInvariant) {
  const Scenario scenario = builtin_scenario("torus-smoke");
  const std::string one = campaign_jsonl(run_campaign(scenario, {.threads = 1, .recording_override = {}}));
  const std::string four = campaign_jsonl(run_campaign(scenario, {.threads = 4, .recording_override = {}}));
  EXPECT_EQ(one, four);
  // Every emitted config round-trips through the component syntax.
  std::size_t start = 0, lines = 0;
  while (start < one.size()) {
    const std::size_t end = one.find('\n', start);
    const Json line = Json::parse(one.substr(start, end - start));
    const ExperimentConfig config = config_from_json(line.at("config"));
    EXPECT_EQ(resolve_components(config).topology.kind, "torus");
    start = end + 1;
    ++lines;
  }
  EXPECT_EQ(lines, 6u);
}

// --- extension through the public API (zero World edits) ---------------------

/// A complete-graph topology registered by this test: proves a new topology
/// flows from registration through config, World wiring and a full run
/// without touching World, spec.cpp or any enum.
class CompleteGraphTopology final : public TopologyProvider {
 public:
  BaseGraph build(const TopologyContext& ctx) const override {
    // Reuse cycle_wide with maximal reach: K_n for odd n.
    return BaseGraph::cycle_wide(ctx.columns, (ctx.columns - 1) / 2);
  }
};

TEST(RegistryExtension, TestRegisteredTopologyRunsEndToEnd) {
  if (!topology_registry().contains("test-complete")) {
    topology_registry().add("test-complete", "complete graph (test-only)", {},
                            [](const ComponentSpec&) {
                              return std::make_shared<const CompleteGraphTopology>();
                            });
  }
  const ExperimentConfig config = config_from_json(Json::parse(R"({
    "base_graph": "test-complete",
    "columns": 5,
    "layers": 4,
    "pulses": 5
  })"));
  const ExperimentResult result = run_cell(config);
  EXPECT_EQ(result.diameter, 1u);
  EXPECT_GT(result.counters.iterations, 0u);
}

}  // namespace
}  // namespace gtrix
