#include "scenario/spec.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <ranges>
#include <set>
#include <type_traits>
#include <utility>

#include "graph/base_graph.hpp"
#include "scenario/generators.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace gtrix {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& message) {
  throw JsonError(path + ": " + message);
}

// Layer0Mode is not a registry dimension; its names, by enum value.
constexpr std::string_view kLayer0Names[] = {"ideal-jitter", "line-propagation"};

void from_name(const std::string& name, Layer0Mode& v) { v = layer0_mode_from_string(name); }
void from_name(const std::string& name, FaultKind& v) { v = fault_kind_from_string(name); }

// --- path-qualified typed readers -------------------------------------------

template <typename Fn>
auto at_path(const std::string& path, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const JsonError& e) {
    throw JsonError(path + ": " + e.what());
  }
}

/// `j` as a T (a number, a bool, a string or a named enum).
template <class T>
T read(const Json& j, const std::string& path) {
  return at_path(path, [&] {
    T v{};
    if constexpr (std::is_same_v<T, bool>) {
      v = j.as_bool();
    } else if constexpr (std::is_same_v<T, double>) {
      v = j.as_double();
    } else if constexpr (std::is_same_v<T, std::int64_t>) {
      v = j.as_int();
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      v = j.as_u64();
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
      const std::uint64_t wide = j.as_u64();
      if (wide > 0xFFFFFFFFull) {
        throw JsonError("value " + std::to_string(wide) + " exceeds uint32");
      }
      v = static_cast<std::uint32_t>(wide);
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = j.as_string();
    } else {
      from_name(j.as_string(), v);
    }
    return v;
  });
}

const Json::Object& members(const Json& j, const std::string& path) {
  return at_path(path, [&]() -> const Json::Object& { return j.as_object(); });
}

struct ConfigDraft {
  ExperimentConfig config;
  ConfigGenerators gen;
  CorruptPlan corrupt;
  bool split_center = false;     ///< "delay_split_column": "center" given
  bool saw_spec_split = false;   ///< 'split_column' set via object form / dotted axis
  bool params_explicit = false;  ///< an explicit d/u/theta/lambda was given
  /// Keys that received a dotted key below them ("base_graph.rows"); a
  /// later whole-component key would silently discard those values, so it
  /// is rejected instead (order the whole key first, e.g. axis declaration
  /// order in a sweep).
  std::set<std::string> dotted;
};

// --- field-list walkers -----------------------------------------------------
// Apply one key, emit, and compare (ExperimentConfig::operator==, below). A
// dotted key walks down the nested lists, so an object and its dotted keys
// take one path.

template <class T>
bool apply_field(T& obj, const std::string& key, const Json& value, const std::string& path,
                 bool known = true);
template <class T>
void apply_object(T& obj, const Json& value, const std::string& path);

/// A whole leaf or list value, checked against its entry's rule.
template <class M, class F>
M parse_value(const F& f, const Json& value, const std::string& path) {
  const FieldRule& rule = f.rule;
  if constexpr (std::ranges::range<M>) {
    const auto& items = at_path(path, [&]() -> const Json::Array& { return value.as_array(); });
    if (items.size() < rule.min) fail(path, std::string(f.key) + " must not be empty");
    M out(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      const std::string at = path + "[" + std::to_string(i) + "]";
      if constexpr (Listed<typename M::value_type>) {
        apply_object(out[i], items[i], at);
      } else {
        out[i] = read<typename M::value_type>(items[i], at);
      }
    }
    return out;
  } else if constexpr (std::is_arithmetic_v<M>) {
    if (rule.sentinel != nullptr && value.is_string()) {
      if (value.as_string() != rule.sentinel) {
        fail(path, std::string("expected an int or \"") + rule.sentinel + "\"");
      }
      return static_cast<M>(rule.sentinel_value);
    }
    const M v = read<M>(value, path);
    const auto x = static_cast<double>(v);
    if (x < rule.min || (rule.above && x == rule.min) || x > rule.max) {
      const auto num = [](double b) { return std::to_string(static_cast<std::int64_t>(b)); };
      fail(path, std::string(f.key) +
                     (rule.max < std::numeric_limits<double>::infinity()
                          ? " must be in [" + num(rule.min) + ", " + num(rule.max) + "]"
                          : (rule.above ? " must be > " : " must be >= ") + num(rule.min)));
    }
    return v;
  } else {
    return read<M>(value, path);
  }
}

/// Applies entry `f` to `member`: the whole value when `rest` is empty,
/// else the dotted path `rest` below it.
template <class F, class M>
void apply_member(const F& f, M& member, const std::string& rest, const Json& value,
                  const std::string& path) {
  if constexpr (requires { f.registry(); }) {
    if (rest.empty()) {
      member = component_from_json(f.registry(), value, path);
    } else {
      at_path(path, [&] { f.registry().set_param(member, rest, value); });
    }
  } else if constexpr (requires { member.emplace(); }) {
    if (rest.empty() || !member) member.emplace();  // a whole generator object replaces it
    apply_member(f, *member, rest, value, path);
  } else if constexpr (Listed<M>) {
    if (rest.empty()) {
      apply_object(member, value, path);
    } else {
      apply_field(member, rest, value, path);
    }
  } else {
    if (!rest.empty()) fail(path, "unknown key '" + rest + "'");
    member = parse_value<M>(f, value, path);
  }
}

/// Applies `key` -- an entry of T's list or a dotted path below one -- to
/// `obj`. An unknown key is an error, or, with `known` false, a false.
template <class T>
bool apply_field(T& obj, const std::string& key, const Json& value, const std::string& path,
                 bool known) {
  bool found = false;
  for_each_field<T>([&](const auto& f) {
    const std::size_t n = std::strlen(f.key);
    if (found || key.compare(0, n, f.key) != 0 || (key.size() > n && key[n] != '.')) return;
    found = true;
    apply_member(f, f.get(obj), key.size() > n ? key.substr(n + 1) : "", value, path);
  });
  if (!found && known) fail(path, "unknown key '" + key + "'");
  return found;
}

template <class T>
void apply_object(T& obj, const Json& value, const std::string& path) {
  for (const auto& [key, member] : members(value, path)) {
    apply_field(obj, key, member, path + "." + key);
  }
  for_each_field<T>([&](const auto& f) {
    if (f.rule.required && !value.contains(f.key)) {
      fail(path, std::string("missing key '") + f.key + "'");
    }
  });
}

template <class T>
Json emit_fields(const T& obj);

template <class F, class M>
Json emit_value(const F& f, const M& member) {
  if constexpr (requires { f.registry(); }) {
    // Canonical: a bare kind, or {"kind": ...} with the non-default params.
    return component_to_json(f.registry(), f.registry().canonicalize(member));
  } else if constexpr (Listed<M>) {
    return emit_fields(member);
  } else if constexpr (std::ranges::range<M>) {
    Json items = Json::array();
    for (const auto& item : member) items.push_back(emit_value(f, item));
    return items;
  } else if constexpr (std::is_enum_v<M>) {
    return Json(to_string(member));
  } else {
    return Json(member);
  }
}

template <class T>
Json emit_fields(const T& obj) {
  const T defaults{};
  Json j = Json::object();
  for_each_field<T>([&](const auto& f) {
    Json value = emit_value(f, f.get(obj));
    if (!f.rule.omit_default || !(value == emit_value(f, f.get(defaults)))) {
      j.set(f.key, std::move(value));
    }
  });
  return j;
}

// --- config drafts ----------------------------------------------------------

/// The canonical spec of a generated fault of `kind`: only the field the
/// kind actually reads is kept, so resolved configs and emitted JSONL never
/// show parameters that had no effect.
FaultSpec canonical_spec(FaultKind kind, const FaultSpec& s) {
  switch (kind) {
    case FaultKind::kCrash: return FaultSpec::crash();
    case FaultKind::kMuteAfter: return FaultSpec::mute_after(s.after);
    case FaultKind::kStaticOffset: return FaultSpec::static_offset(s.offset);
    case FaultKind::kSplit: return FaultSpec::split(s.alpha);
    case FaultKind::kJitter: return FaultSpec::jitter(s.alpha);
    case FaultKind::kFixedPeriod: return FaultSpec::fixed_period(s.period);
  }
  throw JsonError("invalid fault kind");
}

/// Applies one config key -- a whole field or a dotted sweep-axis path --
/// to the draft: the generators' list first, then ExperimentConfig's.
void apply_config_key(ConfigDraft& draft, const std::string& key, const Json& value,
                      const std::string& path) {
  if (key == "params") {  // its dotted keys, so the derive rule below sees each one
    for (const auto& [k, v] : members(value, path)) {
      apply_config_key(draft, "params." + k, v, path + "." + k);
    }
    return;
  }
  if (key.starts_with("corrupt.")) {  // sweep axes; the plan itself is top-level
    draft.corrupt.enabled = true;
    apply_field(draft.corrupt, key.substr(8), value, path);
    return;
  }
  if (key == "delay_split_column") {
    // Column-relative generator only; a fixed column is the column-split
    // spec's own parameter.
    if (!value.is_string() || value.as_string() != "center") {
      fail(path, "expected \"center\" (a fixed split column is 'delay_model.split_column')");
    }
    draft.split_center = true;
    return;
  }
  // Derived and explicit parameters are mutually exclusive; mixing them
  // would make the result depend on key order, so reject it outright.
  const bool params_key = key.starts_with("params.");
  if (apply_field(draft.gen, key, value, path, false)) {
    if (params_key && draft.params_explicit) {
      fail(path, "cannot mix 'derive' with explicit params values");
    }
    return;
  }
  if (params_key && draft.gen.derive) {
    fail(path, "cannot mix explicit params values with 'derive'");
  }
  draft.params_explicit = draft.params_explicit || params_key;
  // A whole-component key replaces the spec wholesale; if dotted parameter
  // keys for it were applied first, their values would be silently
  // discarded -- reject and ask for the other order.
  if (const auto dot = key.find('.'); dot != std::string::npos) {
    draft.dotted.insert(key.substr(0, dot));
  } else if (draft.dotted.contains(key)) {
    fail(path, "'" + key + "' would overwrite parameters set via dotted '" + key +
                   ".<param>' keys; apply the whole-component key first (e.g. declare its "
                   "sweep axis before the parameter axes)");
  }
  if (key == "delay_model.split_column") draft.saw_spec_split = true;
  if (key == "delay_model") {
    draft.saw_spec_split = value.is_object() && value.contains("split_column");
  }
  apply_field(draft.config, key, value, path);
}

ConfigDraft draft_from_json(const Json& j, const std::string& path) {
  ConfigDraft draft;
  for (const auto& [key, value] : members(j, path)) {
    apply_config_key(draft, key, value, path + "." + key);
  }
  return draft;
}

/// Resolves all generators against the final cell shape and checks the
/// constraints that relate several fields. `context` prefixes error
/// messages ("$.config", "cell 'columns=8,seed=2'").
ExperimentConfig resolve_draft(ConfigDraft draft, const std::string& context) {
  ExperimentConfig& c = draft.config;
  if (c.layers == 0) c.layers = c.columns;  // "layers": "columns"

  // The "center" generator splits at columns / 2 of this cell. It must not
  // silently do nothing (wrong delay kind) or silently overwrite an
  // explicit split_column (e.g. a swept 'delay_model.split_column' axis).
  if (draft.split_center) {
    if (c.delay_spec.kind != "column-split") {
      throw JsonError(context + ": 'delay_split_column' has no effect on delay model '" +
                      c.delay_spec.kind + "'");
    }
    if (draft.saw_spec_split) {
      throw JsonError(context + ": 'delay_split_column' conflicts with an explicit "
                      "'delay_model' split_column parameter; use one spelling");
    }
    delay_registry().set_param(c.delay_spec, "split_column",
                               Json(static_cast<std::int64_t>(c.columns / 2)));
  }

  if (draft.gen.derive) {
    const BaseGraph base = make_base_graph(c);
    c.params = Params::derive_for(base.diameter(), draft.gen.derive->u, draft.gen.derive->theta,
                                  draft.gen.derive->safety);
  }
  // The model's constraints across fields; the lists bound each field alone.
  if (!(c.params.u < c.params.d)) {
    throw JsonError(context + ": params.u " + Json(c.params.u).dump() + " must be < params.d " +
                    Json(c.params.d).dump() + " (delays lie in [d - u, d])");
  }
  if (!(c.params.kappa() >= 0.0)) {
    throw JsonError(context + ": params give kappa " + Json(c.params.kappa()).dump() +
                    " < 0 (Eq. (1): kappa = 2 (u + (1 - 1/theta) (lambda - d)))");
  }

  if (draft.gen.layer0_pattern && draft.gen.layer0_pattern->amplitude != 0.0) {
    const double half = draft.gen.layer0_pattern->amplitude / 2.0;
    c.layer0_offset_by_column.resize(c.columns);
    for (std::uint32_t col = 0; col < c.columns; ++col) {
      c.layer0_offset_by_column[col] = (col % 2 == 0) ? half : -half;
    }
  }

  if (draft.gen.clustered_faults && draft.gen.clustered_faults->count > 0) {
    const ClusteredFaultGen& gen = *draft.gen.clustered_faults;
    const Grid grid(make_base_graph(c), c.layers);
    const std::int64_t column = gen.column >= 0 ? gen.column : c.columns / 2;
    const std::int64_t start =
        gen.start_layer >= 0 ? gen.start_layer
                             : std::max<std::int64_t>(1, c.layers / 3);
    if (column >= static_cast<std::int64_t>(c.columns)) {
      throw JsonError(context + ": clustered_faults.column " + std::to_string(column) +
                      " out of range (columns " + std::to_string(c.columns) + ")");
    }
    const FaultSpec spec = canonical_spec(gen.spec.kind, gen.spec);
    try {
      const auto placed =
          clustered_faults(grid, static_cast<std::uint32_t>(gen.count),
                           static_cast<std::uint32_t>(column),
                           static_cast<std::uint32_t>(start), gen.stride, spec);
      c.faults.insert(c.faults.end(), placed.begin(), placed.end());
    } catch (const std::exception& e) {
      throw JsonError(context + ": clustered fault placement failed: " + e.what());
    }
  }

  if (draft.gen.random_faults && draft.gen.random_faults->probability > 0.0) {
    const RandomFaultGen& gen = *draft.gen.random_faults;
    const Grid grid(make_base_graph(c), c.layers);
    // Seeded from the cell seed alone. The committed
    // BENCH_thm13-random-faults.json depends on this stream, so the
    // derivation is fixed.
    Rng rng(c.seed * 77 + 13);
    PlacementOptions options;
    options.probability = gen.probability;
    options.exclude_layer0 = gen.exclude_layer0;
    options.enforce_one_local = gen.enforce_one_local;
    options.max_attempts = gen.max_attempts;
    try {
      auto placed = sample_iid_faults(grid, options, FaultSpec::crash(), rng);
      for (std::size_t i = 0; i < placed.size(); ++i) {
        placed[i].spec = canonical_spec(gen.kinds[i % gen.kinds.size()], gen.spec);
      }
      c.faults.insert(c.faults.end(), placed.begin(), placed.end());
    } catch (const std::exception& e) {
      throw JsonError(context + ": random fault placement failed: " + e.what());
    }
  }

  // Component validation: canonicalize every dimension, instantiate the
  // providers, and build the topology once against the cell's shape, so
  // unknown kinds, out-of-range parameters and topology-vs-columns
  // mismatches all surface here with the cell's path context rather than
  // later inside a worker thread.
  const ResolvedComponents components = at_path(context, [&] { return resolve_components(c); });
  // Sweeps revisit a handful of topology shapes over and over; memoize the
  // successfully built ones (keyed shape -> base node count and minimum
  // degree) so expansion does not pay an all-pairs BFS per cell (the map
  // stays tiny: one entry per distinct shape ever seen).
  struct ShapeInfo {
    std::uint32_t nodes;
    std::uint32_t min_degree;
  };
  static thread_local std::map<std::string, ShapeInfo> valid_shapes;
  const std::string shape = component_to_json(topology_registry(), components.topology).dump() +
                            "@" + std::to_string(c.columns);
  auto shape_it = valid_shapes.find(shape);
  if (shape_it == valid_shapes.end()) {
    try {
      const BaseGraph base = make_base_graph(c);
      shape_it = valid_shapes.emplace(shape, ShapeInfo{base.node_count(), base.min_degree()})
                     .first;
    } catch (const std::exception& e) {
      throw JsonError(context + ": invalid topology: " + e.what());
    }
  }
  const ShapeInfo& info = shape_it->second;
  // The grid id space is uint32 (one sentinel reserved); a layers x base
  // product past that must fail here with cell context, not wrap inside a
  // worker thread (Grid re-checks as the last line of defense).
  try {
    (void)checked_u32_mul(c.layers, info.nodes,
                          "grid node count (" + std::to_string(c.layers) + " layers x " +
                              std::to_string(info.nodes) + " base nodes)");
  } catch (const std::overflow_error& e) {
    throw JsonError(context + ": " + e.what());
  }
  at_path(context, [&] { clock_model_registry().create(components.clock); });
  const double drift =
      at_path(context, [&] { return delay_registry().create(components.delay); })
          ->drift_amplitude();
  // Keeps every drifting delay, and the sharded lookahead, above 0.
  if (!(drift / 2.0 < c.params.d - c.params.u)) {
    throw JsonError(context + ": delay_model.drift_amplitude " + Json(drift).dump() +
                    " must be < 2 (params.d - params.u) = " +
                    Json(2.0 * (c.params.d - c.params.u)).dump() +
                    " (drifting delays lie in [d - u - A/2, d + A/2])");
  }
  const auto algorithm = at_path(context, [&] {
    return algorithm_registry().create(components.algorithm);
  });

  // Capability checks (previously silent no-ops inside World): a fault plan
  // or corruption schedule the experiment cannot honor is a config error.
  const AlgorithmCaps caps = algorithm->caps();
  // The trimmed window keeps H_min at or before H_max only while
  // 2 * trim < the neighbour count; the node constructor re-checks.
  if (caps.trim_limited_by_degree && 2 * static_cast<std::uint64_t>(c.trim) >= info.min_degree) {
    throw JsonError(context + ": trim " + std::to_string(c.trim) + " needs 2 * trim < " +
                    std::to_string(info.min_degree) +
                    ", the minimum neighbour count of topology '" + components.topology.kind +
                    "' (algorithm '" + components.algorithm.kind + "')");
  }
  std::map<std::pair<BaseNodeId, std::uint32_t>, std::size_t> placed;
  for (std::size_t i = 0; i < c.faults.size(); ++i) {
    const PlacedFault& fault = c.faults[i];
    const auto fault_error = [&](const std::string& reason) {
      return JsonError(context + ": fault " + std::to_string(i) + " (kind '" +
                       std::string(to_string(fault.spec.kind)) + "' at base=" +
                       std::to_string(fault.base) + ", layer=" +
                       std::to_string(fault.layer) + "): " + reason);
    };
    if (fault.base >= info.nodes || fault.layer >= c.layers) {
      throw fault_error("outside the grid (" + std::to_string(info.nodes) + " base nodes x " +
                        std::to_string(c.layers) + " layers)");
    }
    // The grid keeps one behaviour per node: a second placement would
    // silently replace the first.
    if (const auto [at, fresh] = placed.emplace(std::pair(fault.base, fault.layer), i); !fresh) {
      throw fault_error("fault " + std::to_string(at->second) + " is on the same node");
    }
    // Layer-0 nodes are sources, not algorithm nodes: the layer-0 machinery
    // can realize a silent node (crash) and, in ideal mode, a static shift;
    // other kinds would be silent no-ops, so reject them outright.
    if (fault.layer == 0) {
      const bool realizable =
          fault.spec.kind == FaultKind::kCrash ||
          (c.layer0 == Layer0Mode::kIdealJitter &&
           fault.spec.kind == FaultKind::kStaticOffset);
      if (!realizable) {
        throw fault_error("layer-0 faults in layer0_mode '" +
                          std::string(to_string(c.layer0)) + "' support " +
                          (c.layer0 == Layer0Mode::kIdealJitter
                               ? "'crash' and 'static-offset' only"
                               : "'crash' only"));
      }
    }
    // A silent node at ANY layer (including layer 0) starves its
    // successors, so it needs tolerates_silent_preds; send-behaviour faults
    // above layer 0 need a node that accepts send overrides.
    const bool silent_kind = fault.spec.kind == FaultKind::kCrash ||
                             fault.spec.kind == FaultKind::kFixedPeriod;
    const bool supported = silent_kind ? caps.tolerates_silent_preds
                                       : (fault.layer == 0 || caps.send_fault_overrides);
    if (!supported) {
      throw fault_error("algorithm '" + components.algorithm.kind +
                        "' does not support it" +
                        (caps.tolerates_silent_preds
                             ? " (supported kinds: crash, fixed-period)"
                             : ""));
    }
  }
  if (draft.corrupt.enabled && !caps.state_corruption) {
    throw JsonError(context + ": corrupt plan requires an algorithm with state-corruption "
                    "support; '" + components.algorithm.kind + "' has none");
  }

  return std::move(draft.config);
}

std::string axis_value_label(const Json& value) {
  return value.is_string() ? value.as_string() : value.dump();
}

}  // namespace

// --- enum <-> string --------------------------------------------------------

std::string_view to_string(Layer0Mode v) { return kLayer0Names[static_cast<std::size_t>(v)]; }

Layer0Mode layer0_mode_from_string(std::string_view s) {
  return enum_from_name<Layer0Mode>(kLayer0Names, s, "layer-0 mode");
}

// --- field lists -------------------------------------------------------------

Json to_json(const ExperimentConfig& config) { return emit_fields(config); }
Json to_json(const CorruptPlan& corrupt) { return emit_fields(corrupt); }

bool ExperimentConfig::operator==(const ExperimentConfig& other) const {
  bool same = true;
  for_each_field<ExperimentConfig>([&](const auto& f) {
    const auto& a = f.get(*this);
    const auto& b = f.get(other);
    if constexpr (requires { f.registry(); }) {
      try {
        same = same && f.registry().canonicalize(a) == f.registry().canonicalize(b);
      } catch (const JsonError&) {
        // Unresolvable (unregistered kind) on either side: equality must
        // not throw, so fall back to comparing the raw specs.
        same = same && a == b;
      }
    } else {
      same = same && a == b;
    }
  });
  return same;
}

ExperimentConfig config_from_json(const Json& j, const std::string& path) {
  return resolve_draft(draft_from_json(j, path), path);
}

// --- Scenario ---------------------------------------------------------------

Scenario Scenario::from_json(const Json& doc) {
  Scenario scenario;
  scenario.doc_ = doc;
  scenario.base_config_ = Json::object();
  const Json* sweep = nullptr;
  for (const auto& [key, value] : members(doc, "$")) {
    if (key == "name") {
      scenario.name_ = read<std::string>(value, "$.name");
    } else if (key == "description") {
      scenario.description_ = read<std::string>(value, "$.description");
    } else if (key == "config") {
      scenario.base_config_ = value;
    } else if (key == "corrupt") {
      apply_object(scenario.corrupt_, value, "$.corrupt");
      scenario.corrupt_.enabled = true;
    } else if (key == "engine") {
      // Engine defaults (performance only, never behaviour): currently just
      // the shard count. See Scenario::engine_shards().
      for (const auto& [k, v] : members(value, "$.engine")) {
        const std::string path = "$.engine." + k;
        if (k == "shards") {
          scenario.engine_shards_ = read<std::uint32_t>(v, path);
          if (scenario.engine_shards_ < 1 || scenario.engine_shards_ > 4096) {
            fail(path, "shards must be in [1, 4096]");
          }
        } else {
          fail(path, "unknown key");
        }
      }
    } else if (key == "sweep") {
      sweep = &value;
    } else {
      fail("$." + key, "unknown key");
    }
  }
  if (scenario.name_.empty()) fail("$", "missing or empty 'name'");

  // Validate the base config eagerly so authoring mistakes surface at load
  // time, not at expansion time.
  ConfigDraft base = draft_from_json(scenario.base_config_, "$.config");

  if (sweep != nullptr) {
    // Cells the axes so far expand to. Each axis is admitted against
    // kMaxScenarioCells before its values are stored, so cell_count() can
    // neither wrap nor describe a matrix too large to expand.
    std::size_t cells = 1;
    const auto admit_axis = [&](const std::string& path, std::uint64_t length) {
      if (length > kMaxScenarioCells / cells) {
        fail(path, std::to_string(length) + " values x " + std::to_string(cells) +
                       " cells from earlier axes exceeds the cap of " +
                       std::to_string(kMaxScenarioCells) + " cells per scenario");
      }
      cells *= static_cast<std::size_t>(length);
    };
    for (const auto& [key, value] : members(*sweep, "$.sweep")) {
      const std::string path = "$.sweep." + key;
      SweepAxis axis;
      axis.key = key;
      if (value.is_array()) {
        const auto& items = value.as_array();
        if (items.empty()) fail(path, "axis must not be empty");
        admit_axis(path, items.size());
        axis.values = items;
      } else if (value.is_object()) {
        std::int64_t from = 0, count = -1, step = 1;
        for (const auto& [k, v] : value.as_object()) {
          const std::string sub = path + "." + k;
          if (k == "from") {
            from = read<std::int64_t>(v, sub);
          } else if (k == "count") {
            count = read<std::int64_t>(v, sub);
          } else if (k == "step") {
            step = read<std::int64_t>(v, sub);
          } else {
            fail(sub, "unknown key");
          }
        }
        if (count < 1) fail(path, "range needs 'count' >= 1");
        if (step == 0 && count > 1) fail(path, "range 'step' must not be 0");
        admit_axis(path, static_cast<std::uint64_t>(count));
        // The range is monotonic, so if its last value fits int64 every
        // value does.
        std::int64_t last = 0;
        if (__builtin_mul_overflow(count - 1, step, &last) ||
            __builtin_add_overflow(from, last, &last)) {
          fail(path, "range from " + std::to_string(from) + " with step " +
                         std::to_string(step) + " overflows int64 before " +
                         std::to_string(count) + " values");
        }
        for (std::int64_t i = 0; i < count; ++i) {
          axis.values.emplace_back(from + i * step);
        }
      } else {
        fail(path, std::string("expected array or {from, count} range, got ") +
                       value.type_name());
      }
      // Dry-apply every axis value so bad axes fail at load time too, and
      // reject duplicates: cell labels are the JSONL row identifier.
      std::set<std::string> labels;
      for (std::size_t i = 0; i < axis.values.size(); ++i) {
        ConfigDraft probe = base;
        apply_config_key(probe, key, axis.values[i],
                         path + "[" + std::to_string(i) + "]");
        if (!labels.insert(axis_value_label(axis.values[i])).second) {
          fail(path + "[" + std::to_string(i) + "]",
               "duplicate axis value '" + axis_value_label(axis.values[i]) + "'");
        }
      }
      scenario.axes_.push_back(std::move(axis));
    }
  }
  return scenario;
}

Scenario Scenario::from_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw JsonError(path + ": cannot open file");
  // Read through the stream, not its buffer: a failed read (the path names
  // a directory, an I/O error) then sets badbit instead of passing for an
  // empty file.
  std::string text;
  for (char chunk[4096]; in.read(chunk, sizeof chunk) || in.gcount() > 0;) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) throw JsonError(path + ": cannot read file");
  try {
    Scenario scenario = from_json(Json::parse(text));
    scenario.origin_ = path;
    return scenario;
  } catch (const JsonError& e) {
    throw JsonError(path + ": " + e.what());
  }
}

std::size_t Scenario::cell_count() const noexcept {
  // from_json admitted every axis against kMaxScenarioCells: no overflow.
  std::size_t count = 1;
  for (const SweepAxis& axis : axes_) count *= axis.values.size();
  return count;
}

std::vector<ScenarioCell> Scenario::cells() const {
  const ConfigDraft base = [&] {
    ConfigDraft draft = draft_from_json(base_config_, "$.config");
    if (corrupt_.enabled) draft.corrupt = corrupt_;
    return draft;
  }();

  std::vector<ScenarioCell> out;
  out.reserve(cell_count());
  std::vector<std::size_t> odometer(axes_.size(), 0);
  while (true) {
    ConfigDraft draft = base;
    std::string label;
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      const SweepAxis& axis = axes_[a];
      const Json& value = axis.values[odometer[a]];
      apply_config_key(draft, axis.key, value, "$.sweep." + axis.key);
      if (!label.empty()) label += ",";
      label += axis.key + "=" + axis_value_label(value);
    }
    if (label.empty()) label = "base";

    ScenarioCell cell;
    cell.label = label;
    cell.corrupt = draft.corrupt;
    cell.config = resolve_draft(std::move(draft),
                                (origin_.empty() ? "" : origin_ + ": ") + "cell '" + label + "'");
    out.push_back(std::move(cell));

    // Odometer increment, last axis fastest.
    std::size_t a = axes_.size();
    while (a > 0) {
      --a;
      if (++odometer[a] < axes_[a].values.size()) break;
      odometer[a] = 0;
      if (a == 0) return out;
    }
    if (axes_.empty()) return out;
  }
}

}  // namespace gtrix
