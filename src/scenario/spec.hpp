// Declarative scenario specifications.
//
// A scenario is a JSON document describing one family of experiments:
//
//   {
//     "name": "thm13-random-faults",
//     "description": "Theorem 1.3: i.i.d. faults at p in o(n^-1/2)",
//     "config": { ... ExperimentConfig fields and generators ... },
//     "corrupt": {"wave": 10, "fraction": 1.0},          // optional (Thm 1.6)
//     "sweep": {                                          // optional axes
//       "columns": [16, 32, 64],
//       "seed": {"from": 1, "count": 100}
//     }
//   }
//
// The four component dimensions (base_graph, clock_model, delay_model,
// algorithm) accept either a bare kind string or the self-describing
// component object syntax, validated against the registered provider's
// parameter schema (see registry/*.hpp):
//
//   "base_graph": "cycle"                          // defaults
//   "base_graph": {"kind": "cycle", "reach": 2}    // explicit parameters
//   "clock_model": {"kind": "drift-walk", "step": 0.25}
//
// The trace-retention mode uses the same syntax under the "recording" key
// ("full" | "streaming"; see docs/scaling.md):
//
//   "recording": "streaming"
//   "recording": {"kind": "streaming", "window": 16}
//
// Sweep axes reach component parameters through dotted paths
// ("base_graph.rows", "clock_model.step", "recording.window"). A component
// key left out of "config" selects the paper's default kind.
//
// "config" holds the base ExperimentConfig plus *generators* -- fields that
// cannot be resolved until the concrete cell is known (grid-dependent fault
// placements, derived parameter sets, column-relative positions):
//
//   "layers": "columns"                   layers track the columns axis
//   "params": {"derive": {...}}           Params::derive_for per cell
//   "layer0_pattern": {"amplitude": A}    alternating +/- A/2 layer-0 offsets
//   "delay_split_column": "center"        column-split at columns / 2
//   "random_faults": {...}                i.i.d. placement (Theorem 1.3)
//   "clustered_faults": {...}             stacked column faults (Theorem 1.2)
//
// "sweep" turns the document into a config matrix: each key is a dotted
// field path ("columns", "random_faults.probability"), each value either an
// explicit array or {"from", "count"[, "step"]} for integer ranges. The
// cartesian product expands in key order with the last axis fastest, so
// cell order -- and therefore result emission order -- is deterministic.
// The product is capped at kMaxScenarioCells, checked at load time before
// any axis's values are stored.
//
// Parsing is strict: unknown keys, wrong types and malformed values are
// rejected with path-qualified messages ("$.config.columns: expected int,
// got string").
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runner/experiment.hpp"
#include "support/json.hpp"

namespace gtrix {

/// Largest matrix one scenario may expand to (the product of its sweep axis
/// lengths). Far above any paper experiment; it bounds what a malformed or
/// hostile document can make the loader allocate.
inline constexpr std::size_t kMaxScenarioCells = 1'000'000;

// --- enum <-> string names --------------------------------------------------
// FaultKind's names live in fault/fault.hpp (visible through this header);
// Layer0Mode is not a registry dimension and stays here.
std::string_view to_string(Layer0Mode v);
Layer0Mode layer0_mode_from_string(std::string_view s);

/// Serializes a fully resolved config. Generators never appear in the
/// output; fault plans are emitted as explicit placements. Default-valued
/// optional blocks (no faults, no layer-0 offsets) are omitted.
Json to_json(const ExperimentConfig& config);
Json to_json(const PlacedFault& fault);

/// Parses a config object; the inverse of to_json. Accepts generator keys
/// as well (they are resolved immediately against the parsed grid shape).
/// `path` prefixes error messages, e.g. "$.config".
ExperimentConfig config_from_json(const Json& j, const std::string& path = "$");

/// Mid-run corruption plan (Theorem 1.6 workloads): at simulated time
/// wave * lambda, scramble the state of `fraction` of all algorithm nodes,
/// then realign wave labels before measuring.
struct CorruptPlan {
  bool enabled = false;
  double wave = 10.0;
  double fraction = 1.0;

  bool operator==(const CorruptPlan&) const = default;
};

/// One fully resolved point of the scenario matrix.
struct ScenarioCell {
  std::string label;  ///< "columns=32,seed=5" (axis order); "base" if no axes
  ExperimentConfig config;
  CorruptPlan corrupt;
};

struct SweepAxis {
  std::string key;           ///< dotted config field path
  std::vector<Json> values;  ///< expanded, in sweep order
};

class Scenario {
 public:
  /// Validates the whole document (strict keys) and keeps it for re-export.
  static Scenario from_json(const Json& doc);
  /// Reads and parses a scenario file; errors -- including later
  /// cells() expansion errors -- are prefixed with the path.
  static Scenario from_file(const std::string& path);

  const std::string& name() const noexcept { return name_; }
  const std::string& description() const noexcept { return description_; }
  const Json& doc() const noexcept { return doc_; }
  const std::vector<SweepAxis>& axes() const noexcept { return axes_; }

  /// Default engine shard count per cell (optional top-level "engine":
  /// {"shards": N}; 1 when absent). A deliberate exception to the rule that
  /// engine choices stay out of scenario configs: shard counts are
  /// bit-identical by construction, so this is a performance default only
  /// -- it never appears inside "config", cell labels or the JSONL, and
  /// the gtrix_campaign --shards flag overrides it.
  std::uint32_t engine_shards() const noexcept { return engine_shards_; }

  /// Number of cells the sweep expands to (product of axis lengths).
  std::size_t cell_count() const noexcept;

  /// Expands the cartesian matrix into concrete configs. Deterministic:
  /// same document -> same cells in the same order.
  std::vector<ScenarioCell> cells() const;

 private:
  std::string name_;
  std::string description_;
  std::string origin_;  // file path (from_file); empty for in-memory docs
  Json doc_;
  Json base_config_;  // "config" object (possibly empty object)
  CorruptPlan corrupt_;
  std::vector<SweepAxis> axes_;
  std::uint32_t engine_shards_ = 1;
};

}  // namespace gtrix
