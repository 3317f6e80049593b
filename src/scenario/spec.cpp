#include "scenario/spec.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <utility>

#include "graph/base_graph.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace gtrix {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& message) {
  throw JsonError(path + ": " + message);
}

// --- enum name tables -------------------------------------------------------

template <typename E>
struct Name {
  E value;
  std::string_view name;
};

template <typename E, std::size_t N>
std::string_view name_of(const Name<E> (&table)[N], E value) {
  for (const auto& entry : table) {
    if (entry.value == value) return entry.name;
  }
  return "?";
}

template <typename E, std::size_t N>
E value_of(const Name<E> (&table)[N], std::string_view name, const char* what) {
  for (const auto& entry : table) {
    if (entry.name == name) return entry.value;
  }
  std::string valid;
  for (const auto& entry : table) {
    if (!valid.empty()) valid += ", ";
    valid += entry.name;
  }
  throw JsonError("unknown " + std::string(what) + " '" + std::string(name) +
                  "' (valid: " + valid + ")");
}

// The four component dimensions are parsed schema-driven against the
// registries; only Layer0Mode (not a registry dimension) keeps a table here.
constexpr Name<Layer0Mode> kLayer0Names[] = {
    {Layer0Mode::kIdealJitter, "ideal-jitter"},
    {Layer0Mode::kLinePropagation, "line-propagation"},
};

// --- path-qualified typed readers -------------------------------------------

template <typename Fn>
auto at_path(const std::string& path, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const JsonError& e) {
    throw JsonError(path + ": " + e.what());
  }
}

double read_double(const Json& j, const std::string& path) {
  return at_path(path, [&] { return j.as_double(); });
}

std::int64_t read_int(const Json& j, const std::string& path) {
  return at_path(path, [&] { return j.as_int(); });
}

std::uint64_t read_u64(const Json& j, const std::string& path) {
  return at_path(path, [&] { return j.as_u64(); });
}

std::uint32_t read_u32(const Json& j, const std::string& path) {
  const std::uint64_t v = read_u64(j, path);
  if (v > 0xFFFFFFFFull) fail(path, "value " + std::to_string(v) + " exceeds uint32");
  return static_cast<std::uint32_t>(v);
}

bool read_bool(const Json& j, const std::string& path) {
  return at_path(path, [&] { return j.as_bool(); });
}

const std::string& read_string(const Json& j, const std::string& path) {
  return at_path(path, [&]() -> const std::string& { return j.as_string(); });
}

// --- generator specs --------------------------------------------------------

struct ParamsDerive {
  double u = 10.0;
  double theta = 1.0005;
  double safety = 1.2;
};

struct Layer0Pattern {
  double amplitude = 0.0;  ///< alternating +/- amplitude/2 by column parity
};

struct RandomFaultGen {
  double probability = 0.0;
  bool exclude_layer0 = true;
  bool enforce_one_local = true;
  std::uint32_t max_attempts = 64;
  std::vector<FaultKind> kinds = {FaultKind::kCrash};
  double offset = 150.0;  ///< static-offset magnitude
  double alpha = 100.0;   ///< split/jitter amplitude
  double period = 0.0;    ///< fixed-period period (0 -> Lambda)
  std::int64_t after = 0; ///< mute-after threshold
};

struct ClusteredFaultGen {
  std::int64_t count = 0;
  std::int64_t column = -1;       ///< -1 (or "center") -> columns / 2
  std::int64_t start_layer = -1;  ///< -1 (or "third") -> max(1, layers / 3)
  std::uint32_t stride = 1;
  FaultKind kind = FaultKind::kCrash;
  double offset = 0.0;
  double alpha = 0.0;
  double period = 0.0;
  std::int64_t after = 0;
};

struct ConfigDraft {
  ExperimentConfig config;
  bool layers_track_columns = false;
  bool split_center = false;      ///< "delay_split_column": "center" given
  bool saw_spec_split = false;    ///< 'split_column' set via object form / dotted axis
  /// Dimensions that received a dotted component-parameter key; a later
  /// whole-component key would silently discard those values, so it is
  /// rejected instead (order the whole key first, e.g. axis declaration
  /// order in a sweep).
  bool dotted_topology = false;
  bool dotted_clock = false;
  bool dotted_delay = false;
  bool dotted_algorithm = false;
  bool dotted_recording = false;
  bool params_explicit = false;  ///< an explicit d/u/theta/lambda was given
  std::optional<ParamsDerive> derive;
  std::optional<Layer0Pattern> layer0_pattern;
  std::optional<RandomFaultGen> random_faults;
  std::optional<ClusteredFaultGen> clustered_faults;
  CorruptPlan corrupt;
};

/// Builds a canonical spec for a generated fault: only the field the kind
/// actually reads is kept, so resolved configs and emitted JSONL never show
/// parameters that had no effect.
FaultSpec make_fault_spec(FaultKind kind, double offset, double alpha, double period,
                          std::int64_t after) {
  switch (kind) {
    case FaultKind::kCrash: return FaultSpec::crash();
    case FaultKind::kMuteAfter: return FaultSpec::mute_after(after);
    case FaultKind::kStaticOffset: return FaultSpec::static_offset(offset);
    case FaultKind::kSplit: return FaultSpec::split(alpha);
    case FaultKind::kJitter: return FaultSpec::jitter(alpha);
    case FaultKind::kFixedPeriod: return FaultSpec::fixed_period(period);
  }
  throw JsonError("invalid fault kind");
}

PlacedFault fault_from_json(const Json& j, const std::string& path) {
  PlacedFault fault;
  bool saw_kind = false;
  for (const auto& [key, value] : at_path(path, [&]() -> const Json::Object& {
         return j.as_object();
       })) {
    const std::string sub = path + "." + key;
    if (key == "base") {
      fault.base = read_u32(value, sub);
    } else if (key == "layer") {
      fault.layer = read_u32(value, sub);
    } else if (key == "kind") {
      fault.spec.kind = at_path(sub, [&] {
        return fault_kind_from_string(read_string(value, sub));
      });
      saw_kind = true;
    } else if (key == "offset") {
      fault.spec.offset = read_double(value, sub);
    } else if (key == "alpha") {
      fault.spec.alpha = read_double(value, sub);
    } else if (key == "period") {
      fault.spec.period = read_double(value, sub);
    } else if (key == "after") {
      fault.spec.after = read_int(value, sub);
    } else {
      fail(sub, "unknown key");
    }
  }
  if (!saw_kind) fail(path, "missing key 'kind'");
  return fault;
}

void apply_params_key(ConfigDraft& draft, const std::string& key, const Json& value,
                      const std::string& path) {
  // Derived and explicit parameters are mutually exclusive; mixing them
  // would make the result depend on key order, so reject it outright.
  if (key == "derive") {
    if (draft.params_explicit) {
      fail(path, "cannot mix 'derive' with explicit params values");
    }
    ParamsDerive derive;
    for (const auto& [k, v] : at_path(path, [&]() -> const Json::Object& {
           return value.as_object();
         })) {
      const std::string sub = path + "." + k;
      if (k == "u") {
        derive.u = read_double(v, sub);
      } else if (k == "theta") {
        derive.theta = read_double(v, sub);
      } else if (k == "safety") {
        derive.safety = read_double(v, sub);
      } else {
        fail(sub, "unknown key");
      }
    }
    draft.derive = derive;
    return;
  }
  if (draft.derive) {
    fail(path, "cannot mix explicit params values with 'derive'");
  }
  draft.params_explicit = true;
  if (key == "d") {
    draft.config.params.d = read_double(value, path);
  } else if (key == "u") {
    draft.config.params.u = read_double(value, path);
  } else if (key == "theta") {
    draft.config.params.theta = read_double(value, path);
  } else if (key == "lambda") {
    draft.config.params.lambda = read_double(value, path);
  } else {
    fail(path, "unknown key");
  }
}

void apply_random_faults_key(RandomFaultGen& gen, const std::string& key, const Json& value,
                             const std::string& path) {
  if (key == "probability") {
    gen.probability = read_double(value, path);
    if (gen.probability < 0.0 || gen.probability > 1.0) {
      fail(path, "probability must be in [0, 1]");
    }
  } else if (key == "exclude_layer0") {
    gen.exclude_layer0 = read_bool(value, path);
  } else if (key == "enforce_one_local") {
    gen.enforce_one_local = read_bool(value, path);
  } else if (key == "max_attempts") {
    gen.max_attempts = read_u32(value, path);
  } else if (key == "kinds") {
    const auto& items = at_path(path, [&]() -> const Json::Array& {
      return value.as_array();
    });
    if (items.empty()) fail(path, "kinds must not be empty");
    gen.kinds.clear();
    for (std::size_t i = 0; i < items.size(); ++i) {
      const std::string sub = path + "[" + std::to_string(i) + "]";
      gen.kinds.push_back(at_path(sub, [&] {
        return fault_kind_from_string(read_string(items[i], sub));
      }));
    }
  } else if (key == "offset") {
    gen.offset = read_double(value, path);
  } else if (key == "alpha") {
    gen.alpha = read_double(value, path);
  } else if (key == "period") {
    gen.period = read_double(value, path);
  } else if (key == "after") {
    gen.after = read_int(value, path);
  } else {
    fail(path, "unknown key");
  }
}

void apply_clustered_key(ClusteredFaultGen& gen, const std::string& key, const Json& value,
                         const std::string& path) {
  if (key == "count") {
    gen.count = read_int(value, path);
    if (gen.count < 0) fail(path, "count must be >= 0");
  } else if (key == "column") {
    if (value.is_string()) {
      if (read_string(value, path) != "center") {
        fail(path, "expected a non-negative int or \"center\"");
      }
      gen.column = -1;
    } else {
      gen.column = static_cast<std::int64_t>(read_u32(value, path));
    }
  } else if (key == "start_layer") {
    if (value.is_string()) {
      if (read_string(value, path) != "third") {
        fail(path, "expected a non-negative int or \"third\"");
      }
      gen.start_layer = -1;
    } else {
      gen.start_layer = static_cast<std::int64_t>(read_u32(value, path));
    }
  } else if (key == "stride") {
    gen.stride = read_u32(value, path);
    if (gen.stride == 0) fail(path, "stride must be >= 1");
  } else if (key == "kind") {
    gen.kind = at_path(path, [&] {
      return fault_kind_from_string(read_string(value, path));
    });
  } else if (key == "offset") {
    gen.offset = read_double(value, path);
  } else if (key == "alpha") {
    gen.alpha = read_double(value, path);
  } else if (key == "period") {
    gen.period = read_double(value, path);
  } else if (key == "after") {
    gen.after = read_int(value, path);
  } else {
    fail(path, "unknown key");
  }
}

void apply_corrupt_key(CorruptPlan& plan, const std::string& key, const Json& value,
                       const std::string& path) {
  plan.enabled = true;
  if (key == "wave") {
    plan.wave = read_double(value, path);
    if (plan.wave < 0.0) fail(path, "wave must be >= 0");
  } else if (key == "fraction") {
    plan.fraction = read_double(value, path);
    if (plan.fraction < 0.0 || plan.fraction > 1.0) {
      fail(path, "fraction must be in [0, 1]");
    }
  } else {
    fail(path, "unknown key");
  }
}

/// Applies one config field (or a dotted sweep-axis path) to the draft.
void apply_config_key(ConfigDraft& draft, const std::string& key, const Json& value,
                      const std::string& path) {
  // Dotted paths route into the composite sub-objects.
  if (const auto dot = key.find('.'); dot != std::string::npos) {
    const std::string head = key.substr(0, dot);
    const std::string rest = key.substr(dot + 1);
    if (head == "params") {
      if (rest.starts_with("derive.")) {
        // params.derive.* adjusts the derive request in place.
        if (draft.params_explicit) {
          fail(path, "cannot mix 'derive' with explicit params values");
        }
        if (!draft.derive) draft.derive = ParamsDerive{};
        const std::string leaf = rest.substr(7);
        if (leaf == "u") {
          draft.derive->u = read_double(value, path);
        } else if (leaf == "theta") {
          draft.derive->theta = read_double(value, path);
        } else if (leaf == "safety") {
          draft.derive->safety = read_double(value, path);
        } else {
          fail(path, "unknown key");
        }
        return;
      }
      apply_params_key(draft, rest, value, path);
    } else if (head == "layer0_pattern") {
      if (!draft.layer0_pattern) draft.layer0_pattern = Layer0Pattern{};
      if (rest == "amplitude") {
        draft.layer0_pattern->amplitude = read_double(value, path);
      } else {
        fail(path, "unknown key");
      }
    } else if (head == "random_faults") {
      if (!draft.random_faults) draft.random_faults = RandomFaultGen{};
      apply_random_faults_key(*draft.random_faults, rest, value, path);
    } else if (head == "clustered_faults") {
      if (!draft.clustered_faults) draft.clustered_faults = ClusteredFaultGen{};
      apply_clustered_key(*draft.clustered_faults, rest, value, path);
    } else if (head == "corrupt") {
      apply_corrupt_key(draft.corrupt, rest, value, path);
    } else if (head == "base_graph") {
      at_path(path, [&] { topology_registry().set_param(draft.config.topology_spec, rest, value); });
      draft.dotted_topology = true;
    } else if (head == "clock_model") {
      at_path(path, [&] { clock_model_registry().set_param(draft.config.clock_spec, rest, value); });
      draft.dotted_clock = true;
    } else if (head == "delay_model") {
      at_path(path, [&] { delay_registry().set_param(draft.config.delay_spec, rest, value); });
      if (rest == "split_column") draft.saw_spec_split = true;
      draft.dotted_delay = true;
    } else if (head == "algorithm") {
      at_path(path, [&] { algorithm_registry().set_param(draft.config.algorithm_spec, rest, value); });
      draft.dotted_algorithm = true;
    } else if (head == "recording") {
      at_path(path, [&] { recording_registry().set_param(draft.config.recording_spec, rest, value); });
      draft.dotted_recording = true;
    } else {
      fail(path, "unknown key '" + key + "'");
    }
    return;
  }

  ExperimentConfig& c = draft.config;
  // A whole-component key replaces the spec wholesale; if dotted parameter
  // keys for this dimension were applied first, their values would be
  // silently discarded -- reject and ask for the other order.
  const auto check_not_after_dotted = [&](bool dotted) {
    if (dotted) {
      fail(path, "'" + key + "' would overwrite parameters set via dotted '" + key +
                     ".<param>' keys; apply the whole-component key first (e.g. declare its "
                     "sweep axis before the parameter axes)");
    }
  };
  if (key == "base_graph") {
    check_not_after_dotted(draft.dotted_topology);
    c.topology_spec = component_from_json(topology_registry(), value, path);
  } else if (key == "columns") {
    c.columns = read_u32(value, path);
    if (c.columns < 2) fail(path, "need at least 2 columns");
  } else if (key == "trim") {
    c.trim = read_u32(value, path);
  } else if (key == "layers") {
    if (value.is_string()) {
      if (read_string(value, path) != "columns") {
        fail(path, "expected an int or \"columns\"");
      }
      draft.layers_track_columns = true;
    } else {
      c.layers = read_u32(value, path);
      draft.layers_track_columns = false;
    }
  } else if (key == "params") {
    for (const auto& [k, v] : at_path(path, [&]() -> const Json::Object& {
           return value.as_object();
         })) {
      apply_params_key(draft, k, v, path + "." + k);
    }
  } else if (key == "algorithm") {
    check_not_after_dotted(draft.dotted_algorithm);
    c.algorithm_spec = component_from_json(algorithm_registry(), value, path);
  } else if (key == "layer0_mode") {
    c.layer0 = at_path(path, [&] {
      return value_of(kLayer0Names, read_string(value, path), "layer-0 mode");
    });
  } else if (key == "layer0_jitter") {
    c.layer0_jitter = read_double(value, path);
  } else if (key == "layer0_offsets") {
    const auto& items = at_path(path, [&]() -> const Json::Array& {
      return value.as_array();
    });
    c.layer0_offset_by_column.clear();
    for (std::size_t i = 0; i < items.size(); ++i) {
      c.layer0_offset_by_column.push_back(
          read_double(items[i], path + "[" + std::to_string(i) + "]"));
    }
  } else if (key == "layer0_pattern") {
    Layer0Pattern pattern;
    for (const auto& [k, v] : at_path(path, [&]() -> const Json::Object& {
           return value.as_object();
         })) {
      const std::string sub = path + "." + k;
      if (k == "amplitude") {
        pattern.amplitude = read_double(v, sub);
      } else {
        fail(sub, "unknown key");
      }
    }
    draft.layer0_pattern = pattern;
  } else if (key == "delay_model") {
    check_not_after_dotted(draft.dotted_delay);
    c.delay_spec = component_from_json(delay_registry(), value, path);
    draft.saw_spec_split = value.is_object() && value.contains("split_column");
  } else if (key == "delay_split_column") {
    // Column-relative generator only; a fixed column is the column-split
    // spec's own parameter.
    if (!value.is_string() || read_string(value, path) != "center") {
      fail(path, "expected \"center\" (a fixed split column is "
                 "'delay_model.split_column')");
    }
    draft.split_center = true;
  } else if (key == "clock_model") {
    check_not_after_dotted(draft.dotted_clock);
    c.clock_spec = component_from_json(clock_model_registry(), value, path);
  } else if (key == "faults") {
    const auto& items = at_path(path, [&]() -> const Json::Array& {
      return value.as_array();
    });
    c.faults.clear();
    for (std::size_t i = 0; i < items.size(); ++i) {
      c.faults.push_back(fault_from_json(items[i], path + "[" + std::to_string(i) + "]"));
    }
  } else if (key == "random_faults") {
    RandomFaultGen gen;
    for (const auto& [k, v] : at_path(path, [&]() -> const Json::Object& {
           return value.as_object();
         })) {
      apply_random_faults_key(gen, k, v, path + "." + k);
    }
    draft.random_faults = gen;
  } else if (key == "clustered_faults") {
    ClusteredFaultGen gen;
    for (const auto& [k, v] : at_path(path, [&]() -> const Json::Object& {
           return value.as_object();
         })) {
      apply_clustered_key(gen, k, v, path + "." + k);
    }
    draft.clustered_faults = gen;
  } else if (key == "recording") {
    check_not_after_dotted(draft.dotted_recording);
    c.recording_spec = component_from_json(recording_registry(), value, path);
  } else if (key == "pulses") {
    c.pulses = read_int(value, path);
    if (c.pulses < 1) fail(path, "need at least one pulse");
  } else if (key == "self_stabilizing") {
    c.self_stabilizing = read_bool(value, path);
  } else if (key == "jump_condition") {
    c.jump_condition = read_bool(value, path);
  } else if (key == "seed") {
    c.seed = read_u64(value, path);
  } else if (key == "warmup") {
    c.warmup = read_int(value, path);
    if (c.warmup < 0) fail(path, "warmup must be >= 0");
  } else {
    fail(path, "unknown key '" + key + "'");
  }
}

ConfigDraft draft_from_json(const Json& j, const std::string& path) {
  ConfigDraft draft;
  for (const auto& [key, value] : at_path(path, [&]() -> const Json::Object& {
         return j.as_object();
       })) {
    apply_config_key(draft, key, value, path + "." + key);
  }
  return draft;
}

/// Resolves all generators against the final cell shape. `context` prefixes
/// error messages ("$.config", "cell 'columns=8,seed=2'").
ExperimentConfig resolve_draft(ConfigDraft draft, const std::string& context) {
  ExperimentConfig& c = draft.config;
  if (draft.layers_track_columns) c.layers = c.columns;

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

  if (draft.derive) {
    const BaseGraph base = make_base_graph(c);
    c.params = Params::derive_for(base.diameter(), draft.derive->u, draft.derive->theta,
                                  draft.derive->safety);
  }

  if (draft.layer0_pattern && draft.layer0_pattern->amplitude != 0.0) {
    const double half = draft.layer0_pattern->amplitude / 2.0;
    c.layer0_offset_by_column.resize(c.columns);
    for (std::uint32_t col = 0; col < c.columns; ++col) {
      c.layer0_offset_by_column[col] = (col % 2 == 0) ? half : -half;
    }
  }

  if (draft.clustered_faults && draft.clustered_faults->count > 0) {
    const ClusteredFaultGen& gen = *draft.clustered_faults;
    const Grid grid(make_base_graph(c), c.layers);
    const std::int64_t column = gen.column >= 0 ? gen.column : c.columns / 2;
    const std::int64_t start =
        gen.start_layer >= 0 ? gen.start_layer
                             : std::max<std::int64_t>(1, c.layers / 3);
    if (column >= static_cast<std::int64_t>(c.columns)) {
      throw JsonError(context + ": clustered_faults.column " + std::to_string(column) +
                      " out of range (columns " + std::to_string(c.columns) + ")");
    }
    const FaultSpec spec =
        make_fault_spec(gen.kind, gen.offset, gen.alpha, gen.period, gen.after);
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

  if (draft.random_faults && draft.random_faults->probability > 0.0) {
    const RandomFaultGen& gen = *draft.random_faults;
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
        const FaultKind kind = gen.kinds[i % gen.kinds.size()];
        placed[i].spec =
            make_fault_spec(kind, gen.offset, gen.alpha, gen.period, gen.after);
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
  at_path(context, [&] { delay_registry().create(components.delay); });
  at_path(context, [&] { (void)resolve_recording(components.recording); });
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
  for (std::size_t i = 0; i < c.faults.size(); ++i) {
    const PlacedFault& fault = c.faults[i];
    const auto fault_error = [&](const std::string& reason) {
      return JsonError(context + ": fault " + std::to_string(i) + " (kind '" +
                       std::string(to_string(fault.spec.kind)) + "' at base=" +
                       std::to_string(fault.base) + ", layer=" +
                       std::to_string(fault.layer) + "): " + reason);
    };
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

std::string_view to_string(Layer0Mode v) { return name_of(kLayer0Names, v); }

Layer0Mode layer0_mode_from_string(std::string_view s) {
  return value_of(kLayer0Names, s, "layer-0 mode");
}

// --- serialization ----------------------------------------------------------

Json to_json(const PlacedFault& fault) {
  Json j = Json::object();
  j.set("base", fault.base);
  j.set("layer", fault.layer);
  j.set("kind", to_string(fault.spec.kind));
  if (fault.spec.offset != 0.0) j.set("offset", fault.spec.offset);
  if (fault.spec.alpha != 0.0) j.set("alpha", fault.spec.alpha);
  if (fault.spec.period != 0.0) j.set("period", fault.spec.period);
  if (fault.spec.after != 0) j.set("after", fault.spec.after);
  return j;
}

Json to_json(const ExperimentConfig& c) {
  // The component dimensions serialize in canonical form: a bare kind
  // string, or {"kind": ...} with the non-default parameters.
  const ResolvedComponents components = resolve_components(c);
  Json j = Json::object();
  j.set("base_graph", component_to_json(topology_registry(), components.topology));
  j.set("columns", c.columns);
  if (c.trim != 0) j.set("trim", c.trim);
  j.set("layers", c.layers);
  Json params = Json::object();
  params.set("d", c.params.d);
  params.set("u", c.params.u);
  params.set("theta", c.params.theta);
  params.set("lambda", c.params.lambda);
  j.set("params", std::move(params));
  j.set("algorithm", component_to_json(algorithm_registry(), components.algorithm));
  j.set("layer0_mode", to_string(c.layer0));
  j.set("layer0_jitter", c.layer0_jitter);
  if (!c.layer0_offset_by_column.empty()) {
    Json offsets = Json::array();
    for (const double v : c.layer0_offset_by_column) offsets.push_back(v);
    j.set("layer0_offsets", std::move(offsets));
  }
  j.set("delay_model", component_to_json(delay_registry(), components.delay));
  j.set("clock_model", component_to_json(clock_model_registry(), components.clock));
  // Full recording is the default and is omitted, keeping every historical
  // config byte-identical through a serialize/parse round trip.
  if (components.recording != recording_spec_default()) {
    j.set("recording", component_to_json(recording_registry(), components.recording));
  }
  if (!c.faults.empty()) {
    Json faults = Json::array();
    for (const PlacedFault& fault : c.faults) faults.push_back(to_json(fault));
    j.set("faults", std::move(faults));
  }
  j.set("pulses", c.pulses);
  j.set("self_stabilizing", c.self_stabilizing);
  j.set("jump_condition", c.jump_condition);
  j.set("seed", c.seed);
  j.set("warmup", c.warmup);
  return j;
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
  for (const auto& [key, value] : at_path("$", [&]() -> const Json::Object& {
         return doc.as_object();
       })) {
    if (key == "name") {
      scenario.name_ = read_string(value, "$.name");
    } else if (key == "description") {
      scenario.description_ = read_string(value, "$.description");
    } else if (key == "config") {
      scenario.base_config_ = value;
    } else if (key == "corrupt") {
      for (const auto& [k, v] : at_path("$.corrupt", [&]() -> const Json::Object& {
             return value.as_object();
           })) {
        apply_corrupt_key(scenario.corrupt_, k, v, "$.corrupt." + k);
      }
      scenario.corrupt_.enabled = true;
    } else if (key == "engine") {
      // Engine defaults (performance only, never behaviour): currently just
      // the shard count. See Scenario::engine_shards().
      for (const auto& [k, v] : at_path("$.engine", [&]() -> const Json::Object& {
             return value.as_object();
           })) {
        const std::string path = "$.engine." + k;
        if (k == "shards") {
          scenario.engine_shards_ = read_u32(v, path);
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
    for (const auto& [key, value] : at_path("$.sweep", [&]() -> const Json::Object& {
           return sweep->as_object();
         })) {
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
            from = read_int(v, sub);
          } else if (k == "count") {
            count = read_int(v, sub);
          } else if (k == "step") {
            step = read_int(v, sub);
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
