// Declarative scenario specifications (docs/scenarios.md). A scenario is a
// JSON document: a "name", a "description", a base "config", an optional
// top-level "corrupt" plan (Thm 1.6) and optional "sweep" axes. Each axis
// is a dotted config path with an array or a {"from", "count"[, "step"]}
// range; the cartesian product expands in key order with the last axis
// fastest, so cell order is deterministic, and is capped at
// kMaxScenarioCells before any axis's values are stored.
//
// "config" takes the keys of the field lists: ExperimentConfig's
// (runner/experiment.hpp, with Params and PlacedFault nested) and the
// generators' (scenario/generators.hpp), which resolve per cell against
// its grid shape and seed, plus "layers": "columns" and
// "delay_split_column": "center". Component keys take a bare kind or
// {"kind": ..., <params>}, checked against the registries. A dotted key
// ("clock_model.step", "random_faults.probability", "corrupt.wave") walks
// down the same lists as the object form.
//
// Parsing is strict: unknown keys, wrong types and out-of-range values are
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

/// Mid-run corruption plan (Theorem 1.6 workloads): at simulated time
/// wave * lambda, scramble the state of `fraction` of all algorithm nodes,
/// then realign wave labels before measuring.
struct CorruptPlan {
  bool enabled = false;
  double wave = 10.0;
  double fraction = 1.0;

  bool operator==(const CorruptPlan&) const = default;
};

/// The top-level "corrupt" object (and the "corrupt.<key>" sweep axes);
/// giving it enables the plan.
constexpr auto fields_of(const CorruptPlan*) {
  return std::tuple{
      Field<&CorruptPlan::wave>{"wave", {.min = 0}},
      Field<&CorruptPlan::fraction>{"fraction", {.min = 0, .max = 1}},
  };
}
GTRIX_CKPT_FIELDS(CorruptPlan, 3);

/// Serialize through the field lists. A config's generators never appear
/// in the output; fault plans are emitted as explicit placements, and
/// default-valued optional fields (trim 0, full recording, no faults, no
/// layer-0 offsets) are omitted.
Json to_json(const ExperimentConfig& config);
Json to_json(const CorruptPlan& corrupt);

/// Parses a config object; the inverse of to_json. Accepts generator keys
/// as well (they are resolved immediately against the parsed grid shape).
/// `path` prefixes error messages, e.g. "$.config".
ExperimentConfig config_from_json(const Json& j, const std::string& path = "$");

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
