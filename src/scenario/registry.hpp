// Built-in scenarios reproducing the paper's headline experiments.
//
// The built-ins are the files scenarios/*.json: CMakeLists.txt compiles
// their bytes into the library, and each loads through the same
// Scenario::from_json path as a user file. To add or change a built-in,
// edit its file and rebuild.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "scenario/spec.hpp"

namespace gtrix {

struct BuiltinInfo {
  std::string_view name;
  std::string_view summary;
};

/// All built-in scenario names with one-line summaries (the first sentence
/// of each description), in file-name order.
const std::vector<BuiltinInfo>& builtin_scenarios();

bool is_builtin_scenario(std::string_view name);

/// The scenario document for a built-in; throws JsonError listing the valid
/// names when `name` is unknown.
Json builtin_scenario_doc(std::string_view name);

/// Convenience: builtin_scenario_doc parsed into a Scenario.
Scenario builtin_scenario(std::string_view name);

}  // namespace gtrix
