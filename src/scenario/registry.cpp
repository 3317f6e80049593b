#include "scenario/registry.hpp"

namespace gtrix {

namespace {

// Builders below construct the documents member by member; every document
// goes through Scenario::from_json before leaving this translation unit, so
// a malformed builder fails loudly in tests rather than at a user's desk.

Json sweep_range(std::int64_t from, std::int64_t count) {
  Json j = Json::object();
  j.set("from", from);
  j.set("count", count);
  return j;
}

template <typename T>
Json array_of(std::initializer_list<T> values) {
  Json j = Json::array();
  for (const T& v : values) j.push_back(Json(v));
  return j;
}

/// Small fault-free grids over a few seeds; the CI determinism smoke and
/// the fastest end-to-end exercise of the campaign pipeline.
Json quickstart_grid() {
  Json doc = Json::object();
  doc.set("name", "quickstart-grid");
  doc.set("description",
          "Small fault-free Gradient TRIX grids over a handful of seeds; "
          "fast end-to-end smoke for the campaign pipeline and the CI "
          "thread-determinism check.");
  Json config = Json::object();
  config.set("layers", "columns");
  config.set("pulses", 10);
  doc.set("config", std::move(config));
  Json sweep = Json::object();
  sweep.set("columns", array_of({6, 8}));
  sweep.set("seed", sweep_range(1, 4));
  doc.set("sweep", std::move(sweep));
  return doc;
}

/// Table 1: Gradient TRIX vs naive TRIX on the same substrate, fault-free
/// and with one mid-grid crash, under the adversarial column-split delays.
Json table1_comparison() {
  Json doc = Json::object();
  doc.set("name", "table1-comparison");
  doc.set("description",
          "Table 1 core comparison: Gradient TRIX vs naive TRIX under "
          "adversarial column-split delays, fault-free and with one crash "
          "fault mid-grid. Gradient TRIX local skew stays ~kappa log D while "
          "naive TRIX grows linearly in D.");
  Json config = Json::object();
  config.set("layers", "columns");
  config.set("pulses", 16);
  config.set("delay_model", "column-split");
  config.set("delay_split_column", "center");
  Json crash = Json::object();
  crash.set("count", 0);
  crash.set("kind", "crash");
  crash.set("column", "center");
  crash.set("start_layer", "third");
  config.set("clustered_faults", std::move(crash));
  doc.set("config", std::move(config));
  Json sweep = Json::object();
  sweep.set("algorithm", array_of({"gradient-full", "trix-naive"}));
  sweep.set("columns", array_of({8, 16, 32}));
  sweep.set("clustered_faults.count", array_of({0, 1}));
  doc.set("sweep", std::move(sweep));
  return doc;
}

/// Theorem 1.1: fault-free local skew is O(kappa log D); parameters derived
/// per diameter so Eq. (2)/(3) hold at every size.
Json thm11_logd() {
  Json doc = Json::object();
  doc.set("name", "thm11-logd");
  doc.set("description",
          "Theorem 1.1: fault-free local skew vs diameter. Parameters are "
          "derived per cell (Lambda = 2d, safety 1.1); measured skew should "
          "track 4 kappa (2 + log2 D) sublinearly.");
  Json config = Json::object();
  config.set("layers", "columns");
  config.set("pulses", 20);
  Json params = Json::object();
  Json derive = Json::object();
  derive.set("u", 10.0);
  derive.set("theta", 1.0005);
  derive.set("safety", 1.1);
  params.set("derive", std::move(derive));
  config.set("params", std::move(params));
  doc.set("config", std::move(config));
  Json sweep = Json::object();
  sweep.set("columns", array_of({5, 9, 17, 33, 65}));  // D = 4, 8, 16, 32, 64
  doc.set("sweep", std::move(sweep));
  return doc;
}

/// Theorem 1.2: f faults stacked in one column at minimal spacing; skew may
/// grow by ~5x per added fault. Amplitudes in multiples of kappa (~21).
Json thm12_worstcase_faults() {
  Json doc = Json::object();
  doc.set("name", "thm12-worstcase-faults");
  doc.set("description",
          "Theorem 1.2: worst-case clustered faults. f split faults stacked "
          "in the center column on consecutive layers; sweeping f and the "
          "split amplitude (2/6/12 kappa, kappa ~ 21). Bound: "
          "4 kappa (2+log2 D) 5^f sum 5^-j.");
  Json config = Json::object();
  config.set("columns", 12);
  config.set("layers", 16);
  config.set("pulses", 18);
  Json faults = Json::object();
  faults.set("kind", "split");
  faults.set("column", "center");
  faults.set("start_layer", 2);
  faults.set("stride", 1);
  faults.set("alpha", 126.0);
  config.set("clustered_faults", std::move(faults));
  doc.set("config", std::move(config));
  Json sweep = Json::object();
  sweep.set("clustered_faults.count", array_of({0, 1, 2, 3, 4}));
  sweep.set("clustered_faults.alpha", array_of({42.0, 126.0, 252.0}));
  doc.set("sweep", std::move(sweep));
  return doc;
}

/// Theorem 1.3: i.i.d. faults with probability p in o(n^-1/2). On the
/// 16x16 grid (n = 256), p = scaled / 16 for scaled in {0 .. 1}.
Json thm13_random_faults() {
  Json doc = Json::object();
  doc.set("name", "thm13-random-faults");
  doc.set("description",
          "Theorem 1.3: uniformly random faults. Mixed crash/static-offset/"
          "split faults placed i.i.d. with probability p = s/sqrt(n) for "
          "s in {0, 1/8, 1/4, 1/2, 1}, eight seeds per p; local skew should "
          "stay O(kappa log D) with no 5^f blow-up.");
  Json config = Json::object();
  config.set("columns", 16);
  config.set("layers", 16);
  config.set("pulses", 18);
  Json gen = Json::object();
  gen.set("probability", 0.0);
  gen.set("kinds", array_of({"crash", "static-offset", "split"}));
  gen.set("offset", 150.0);
  gen.set("alpha", 100.0);
  config.set("random_faults", std::move(gen));
  doc.set("config", std::move(config));
  Json sweep = Json::object();
  // p = scaled / sqrt(256) = scaled / 16.
  sweep.set("random_faults.probability",
            array_of({0.0, 0.0078125, 0.015625, 0.03125, 0.0625}));
  sweep.set("seed", sweep_range(1000, 8));
  doc.set("sweep", std::move(sweep));
  return doc;
}

/// Figure 5: the jump-condition ablation under an adversarial oscillatory
/// start. Amplitude 8 kappa ~ 168 with the default d=1000, u=10 parameters.
Json fig5_jump_ablation() {
  Json doc = Json::object();
  doc.set("name", "fig5-jump-ablation");
  doc.set("description",
          "Figure 5: jump condition on/off. Alternating +/-84 layer-0 "
          "offsets, own-copy edges at d and cross edges at d-u (every "
          "offset measurement overestimates by u), drift removed. With the "
          "jump condition the oscillation damps; without it a residual ~u "
          "oscillation persists.");
  Json config = Json::object();
  config.set("columns", 12);
  config.set("layers", 32);
  config.set("pulses", 18);
  config.set("delay_model", "own-slow-cross-fast");
  config.set("clock_model", "all-slow");
  config.set("layer0_jitter", 0.0);
  Json pattern = Json::object();
  pattern.set("amplitude", 168.0);
  config.set("layer0_pattern", std::move(pattern));
  doc.set("config", std::move(config));
  Json sweep = Json::object();
  sweep.set("jump_condition", array_of({true, false}));
  doc.set("sweep", std::move(sweep));
  return doc;
}

/// Theorem 1.6: full transient corruption mid-run; recovery takes O(#layers)
/// waves because correct state propagates one layer per wave.
Json thm16_stabilization() {
  Json doc = Json::object();
  doc.set("name", "thm16-stabilization");
  doc.set("description",
          "Theorem 1.6: self-stabilization. Every node's registers and "
          "timers are scrambled at wave 10; the pulse count leaves room for "
          "recovery at every layer count. Skew measured after realignment "
          "should return under the Theorem 1.1 bound within ~#layers waves.");
  Json config = Json::object();
  config.set("columns", 10);
  config.set("layers", 6);
  config.set("pulses", 48);
  config.set("self_stabilizing", true);
  doc.set("config", std::move(config));
  Json corrupt = Json::object();
  corrupt.set("wave", 10.0);
  corrupt.set("fraction", 1.0);
  doc.set("corrupt", std::move(corrupt));
  Json sweep = Json::object();
  sweep.set("layers", array_of({6, 10, 14, 18}));
  sweep.set("seed", sweep_range(100, 3));
  doc.set("sweep", std::move(sweep));
  return doc;
}

/// Registry smoke: a 2D torus base graph under bounded-drift random-walk
/// clocks -- two kinds beyond the paper's defaults, proving the provider
/// API end to end. Small and fast; wired into the CI determinism check.
Json torus_smoke() {
  Json doc = Json::object();
  doc.set("name", "torus-smoke");
  doc.set("description",
          "Component-registry smoke: 2D torus base graph (3 rings of 6 "
          "columns, min degree 4) with bounded-drift random-walk clocks, "
          "both addressable only through the provider registries. Exercises "
          "the {\"kind\": ...} component syntax, dotted component-parameter "
          "sweep axes, and topology diversity beyond the paper's line.");
  Json config = Json::object();
  Json torus = Json::object();
  torus.set("kind", "torus");
  torus.set("rows", 3);
  config.set("base_graph", std::move(torus));
  config.set("columns", 6);
  config.set("layers", 8);
  config.set("pulses", 10);
  Json clock = Json::object();
  clock.set("kind", "drift-walk");
  clock.set("step", 0.5);
  config.set("clock_model", std::move(clock));
  doc.set("config", std::move(config));
  Json sweep = Json::object();
  sweep.set("clock_model.interval_waves", array_of({1.0, 4.0}));
  sweep.set("seed", sweep_range(1, 3));
  doc.set("sweep", std::move(sweep));
  return doc;
}

/// Mega-grid scale target: the paper's bounds are asymptotic in D, and the
/// full-trace recorder cannot hold a 512x512 run in RAM. Streaming
/// recording makes it routine: O(nodes) metrics memory, bit-identical skew
/// extrema (bench_scale measures peak RSS and events/sec for the committed
/// BENCH_scale-grid.json trajectory; the CI smoke asserts the RSS ceiling
/// on a reduced shape).
Json scale_grid() {
  Json doc = Json::object();
  doc.set("name", "scale-grid");
  doc.set("description",
          "Mega-grid scale run: the paper's line-replicated base at 512 "
          "columns x 512 layers (263k nodes) under streaming recording. "
          "Full-trace recording of this shape needs gigabytes for the "
          "iteration log alone; the streaming accumulators keep metrics "
          "memory O(nodes) with bit-identical skew extrema.");
  Json config = Json::object();
  config.set("columns", 512);
  config.set("layers", 512);
  config.set("pulses", 16);
  config.set("recording", "streaming");
  doc.set("config", std::move(config));
  return doc;
}

/// Torus counterpart: degree-4 base, no replicated endpoints, wraparound in
/// both dimensions -- the densest builtin shape (3 rings x 512 columns x
/// 512 layers = 786k nodes).
Json scale_torus() {
  Json doc = Json::object();
  doc.set("name", "scale-torus");
  doc.set("description",
          "Mega-grid torus: 3 rings of 512 columns per layer, 512 layers "
          "(786k nodes, in-degree 5) under streaming recording. Stresses "
          "the scheduler and the streaming accumulators at the highest "
          "node and edge counts of any builtin scenario.");
  Json config = Json::object();
  Json torus = Json::object();
  torus.set("kind", "torus");
  torus.set("rows", 3);
  config.set("base_graph", std::move(torus));
  config.set("columns", 512);
  config.set("layers", 512);
  config.set("pulses", 12);
  config.set("recording", "streaming");
  doc.set("config", std::move(config));
  return doc;
}

/// The paper's self-stabilization story (Thm 1.6) at mega-grid scale, with
/// the fault densities of Thms 1.2/1.3 riding along: an 8-ring torus of
/// 400 columns x 32 layers (102k nodes), full corruption at wave 8, and a
/// random-fault probability sweep around p = 1/(2 sqrt n). The torus rings
/// multiply nodes without widening the intra-layer extent: past ~800
/// columns a fully scrambled layer coarsens into wave-label domains whose
/// healing time grows with width and recovery misses the ~#layers-wave
/// budget, while 400 columns re-stabilize in ~17 waves at every density.
/// Streaming recording with a 44-wave corruption look-back keeps the whole
/// campaign inside the bench_scale RSS budget; realignment and the
/// recovery scan replay from the retained window
/// (BENCH_scale-stabilization.json).
Json scale_stabilization() {
  Json doc = Json::object();
  doc.set("name", "scale-stabilization");
  doc.set("description",
          "Mega-grid self-stabilization: 8-ring torus x 400 columns x 32 "
          "layers (102k nodes), every node scrambled at wave 8, recovery "
          "measured per Thm 1.6 under a Thm 1.3 fault-density sweep (p = 0, "
          "1/(4 sqrt n), 1/(2 sqrt n)). Streaming recording; the 44-wave "
          "corruption look-back covers realignment tails and the recovery "
          "scan, so metrics memory stays O(nodes) end to end.");
  Json config = Json::object();
  Json base = Json::object();
  base.set("kind", "torus");
  base.set("rows", 8);
  config.set("base_graph", std::move(base));
  config.set("columns", 400);
  config.set("layers", 32);
  config.set("pulses", 84);
  config.set("self_stabilizing", true);
  Json recording = Json::object();
  recording.set("kind", "streaming");
  recording.set("window", 44);
  config.set("recording", std::move(recording));
  Json gen = Json::object();
  gen.set("probability", 0.0);
  gen.set("kinds", array_of({"crash", "static-offset", "split"}));
  gen.set("offset", 150.0);
  gen.set("alpha", 100.0);
  config.set("random_faults", std::move(gen));
  doc.set("config", std::move(config));
  Json corrupt = Json::object();
  corrupt.set("wave", 8.0);
  corrupt.set("fraction", 1.0);
  doc.set("corrupt", std::move(corrupt));
  Json sweep = Json::object();
  // sqrt(n) = sqrt(102400) = 320: p = 0, 1/1280, 1/640.
  sweep.set("random_faults.probability", array_of({0.0, 0.00078125, 0.0015625}));
  doc.set("sweep", std::move(sweep));
  return doc;
}

struct Builtin {
  BuiltinInfo info;
  Json (*build)();
};

const Builtin kBuiltins[] = {
    {{"quickstart-grid", "small fault-free grids; campaign/CI smoke"}, quickstart_grid},
    {{"table1-comparison", "Table 1: Gradient TRIX vs naive TRIX, split delays"},
     table1_comparison},
    {{"thm11-logd", "Thm 1.1: fault-free skew vs diameter, derived params"}, thm11_logd},
    {{"thm12-worstcase-faults", "Thm 1.2: clustered faults, skew vs f and amplitude"},
     thm12_worstcase_faults},
    {{"thm13-random-faults", "Thm 1.3: i.i.d. faults, skew vs p over seeds"},
     thm13_random_faults},
    {{"fig5-jump-ablation", "Fig 5: jump condition on/off, oscillatory start"},
     fig5_jump_ablation},
    {{"thm16-stabilization", "Thm 1.6: full corruption at wave 10, recovery"},
     thm16_stabilization},
    {{"torus-smoke", "registry smoke: torus topology + drift-walk clocks"}, torus_smoke},
    {{"scale-grid", "512x512 mega-grid, streaming recording; bench_scale anchor"},
     scale_grid},
    {{"scale-torus", "3x512 torus x 512 layers (786k nodes), streaming recording"},
     scale_torus},
    {{"scale-stabilization",
      "Thm 1.6 at scale: 102k nodes, corruption + fault-density sweep, streaming"},
     scale_stabilization},
};

}  // namespace

const std::vector<BuiltinInfo>& builtin_scenarios() {
  static const std::vector<BuiltinInfo> infos = [] {
    std::vector<BuiltinInfo> out;
    for (const Builtin& b : kBuiltins) out.push_back(b.info);
    return out;
  }();
  return infos;
}

bool is_builtin_scenario(std::string_view name) {
  for (const Builtin& b : kBuiltins) {
    if (b.info.name == name) return true;
  }
  return false;
}

Json builtin_scenario_doc(std::string_view name) {
  for (const Builtin& b : kBuiltins) {
    if (b.info.name == name) return b.build();
  }
  std::string valid;
  for (const Builtin& b : kBuiltins) {
    if (!valid.empty()) valid += ", ";
    valid += b.info.name;
  }
  throw JsonError("unknown built-in scenario '" + std::string(name) +
                  "' (valid: " + valid + ")");
}

Scenario builtin_scenario(std::string_view name) {
  return Scenario::from_json(builtin_scenario_doc(name));
}

}  // namespace gtrix
