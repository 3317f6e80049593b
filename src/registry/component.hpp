// String-keyed component references and parameter schemas shared by the
// topology / clock / delay / algorithm provider registries.
//
// A component is addressed from C++ or from scenario JSON as a `kind` name
// plus a flat object of typed parameters:
//
//   "base_graph": "torus"                          // all defaults
//   "base_graph": {"kind": "torus", "rows": 4}     // explicit parameter
//
// Every registered kind declares its parameters up front (name, type,
// default, description), so parsing is schema-driven: unknown keys and type
// mismatches are rejected with the same path-qualified errors as the rest
// of the scenario layer, and `gtrix_campaign --list` / `--describe` can
// enumerate what exists without touching C++.
#pragma once

#include <limits>
#include <string>
#include <utility>

#include "support/json.hpp"

namespace gtrix {

/// Reference to a registered component. `params` is always a JSON object;
/// after canonicalization (ComponentRegistry::canonicalize) it holds every
/// declared parameter in schema order with defaults filled in, so two
/// spellings of the same configuration compare equal. Every registry
/// rejects an empty kind; only optional selections such as
/// CampaignOptions::recording_override use it, to mean "no override".
struct ComponentSpec {
  std::string kind;
  Json params = Json::object();

  bool empty() const noexcept { return kind.empty(); }

  static ComponentSpec of(std::string kind) {
    ComponentSpec spec;
    spec.kind = std::move(kind);
    return spec;
  }

  bool operator==(const ComponentSpec&) const = default;
};

enum class ParamType { kInt, kDouble, kBool, kString };

const char* param_type_name(ParamType t) noexcept;

/// One declared parameter of a component kind. `default_value` must match
/// `type`; registration validates this so a bad schema fails loudly in
/// tests, not at a user's desk.
struct ParamInfo {
  std::string name;
  ParamType type = ParamType::kDouble;
  Json default_value;
  std::string description;
  /// Smallest accepted value of a numeric parameter, checked wherever a
  /// value is parsed, so an out-of-range one fails at load with its path.
  double min = -std::numeric_limits<double>::infinity();
};

}  // namespace gtrix
