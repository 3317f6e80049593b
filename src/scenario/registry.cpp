#include "scenario/registry.hpp"

namespace gtrix {

namespace {

struct ScenarioText {
  std::string_view file;
  std::string_view json;
};

// Every scenarios/*.json in file-name order, as CMakeLists.txt compiles it in.
constexpr ScenarioText kTexts[] = {
#include "builtin_scenarios.inc"
};

// Each text parsed once; builtin_scenarios() views the names and
// descriptions these hold.
const std::vector<Scenario>& builtins() {
  static const std::vector<Scenario> all = [] {
    std::vector<Scenario> out;
    for (const ScenarioText& text : kTexts) {
      try {
        out.push_back(Scenario::from_json(Json::parse(text.json)));
      } catch (const JsonError& e) {
        throw JsonError(std::string(text.file) + ": " + e.what());
      }
    }
    return out;
  }();
  return all;
}

const Scenario* find_builtin(std::string_view name) {
  for (const Scenario& s : builtins()) {
    if (s.name() == name) return &s;
  }
  return nullptr;
}

}  // namespace

const std::vector<BuiltinInfo>& builtin_scenarios() {
  static const std::vector<BuiltinInfo> infos = [] {
    std::vector<BuiltinInfo> out;
    for (const Scenario& s : builtins()) {
      // The one-line summary is the description's first sentence.
      const std::string_view description = s.description();
      const std::size_t end = description.find(". ");
      out.push_back({s.name(), end == std::string_view::npos ? description
                                                             : description.substr(0, end + 1)});
    }
    return out;
  }();
  return infos;
}

bool is_builtin_scenario(std::string_view name) { return find_builtin(name) != nullptr; }

Json builtin_scenario_doc(std::string_view name) {
  if (const Scenario* s = find_builtin(name)) return s->doc();
  std::string valid;
  for (const Scenario& s : builtins()) {
    if (!valid.empty()) valid += ", ";
    valid += s.name();
  }
  throw JsonError("unknown built-in scenario '" + std::string(name) + "' (valid: " + valid +
                  ")");
}

Scenario builtin_scenario(std::string_view name) {
  return Scenario::from_json(builtin_scenario_doc(name));
}

}  // namespace gtrix
