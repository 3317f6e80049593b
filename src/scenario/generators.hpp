// Scenario generators: "config" keys that resolve only once the cell is
// known -- its grid shape and seed (docs/scenarios.md). Each has a field
// list like the config types; scenario/spec.cpp applies their keys to a
// draft and resolves them per cell.
#pragma once

#include <cstdint>
#include <optional>
#include <tuple>
#include <vector>

#include "fault/fault.hpp"
#include "support/fields.hpp"

namespace gtrix {

struct ParamsDerive {
  double u = 10.0;
  double theta = 1.0005;
  double safety = 1.2;
};

constexpr auto fields_of(const ParamsDerive*) {
  return std::tuple{
      Field<&ParamsDerive::u>{"u"},
      Field<&ParamsDerive::theta>{"theta", {.min = 1, .above = true}},  // Params::derive_for
      Field<&ParamsDerive::safety>{"safety"},
  };
}
GTRIX_CKPT_FIELDS(ParamsDerive, 3);

struct Layer0Pattern {
  double amplitude = 0.0;  ///< alternating +/- amplitude/2 by column parity
};

constexpr auto fields_of(const Layer0Pattern*) {
  return std::tuple{Field<&Layer0Pattern::amplitude>{"amplitude"}};
}
GTRIX_CKPT_FIELDS(Layer0Pattern, 1);

struct RandomFaultGen {
  double probability = 0.0;
  bool exclude_layer0 = true;
  bool enforce_one_local = true;
  std::uint32_t max_attempts = 64;
  std::vector<FaultKind> kinds = {FaultKind::kCrash};  ///< rotated over the placements
  FaultSpec spec{.offset = 150.0, .alpha = 100.0};     ///< its kind is unused
};

constexpr auto fields_of(const RandomFaultGen*) {
  using G = RandomFaultGen;
  return std::tuple_cat(std::tuple{
                            Field<&G::probability>{"probability", {.min = 0, .max = 1}},
                            Field<&G::exclude_layer0>{"exclude_layer0"},
                            Field<&G::enforce_one_local>{"enforce_one_local"},
                            Field<&G::max_attempts>{"max_attempts"},
                            Field<&G::kinds>{"kinds", {.min = 1}},
                        },
                        fault_spec_fields<G>());
}
GTRIX_CKPT_FIELDS(RandomFaultGen, 6);

struct ClusteredFaultGen {
  std::int64_t count = 0;
  std::int64_t column = -1;       ///< -1 ("center") -> columns / 2
  std::int64_t start_layer = -1;  ///< -1 ("third") -> max(1, layers / 3)
  std::uint32_t stride = 1;
  FaultSpec spec;
};

constexpr auto fields_of(const ClusteredFaultGen*) {
  using G = ClusteredFaultGen;
  return std::tuple_cat(
      std::tuple{
          Field<&G::count>{"count", {.min = 0}},
          Field<&G::column>{"column", {.min = 0, .sentinel = "center", .sentinel_value = -1}},
          Field<&G::start_layer>{"start_layer",
                                 {.min = 0, .sentinel = "third", .sentinel_value = -1}},
          Field<&G::stride>{"stride", {.min = 1}},
          Field<&G::spec, &FaultSpec::kind>{"kind"},
      },
      fault_spec_fields<G>());
}
GTRIX_CKPT_FIELDS(ClusteredFaultGen, 5);

/// The generator keys "config" takes beside ExperimentConfig's own.
struct ConfigGenerators {
  std::optional<ParamsDerive> derive;
  std::optional<Layer0Pattern> layer0_pattern;
  std::optional<RandomFaultGen> random_faults;
  std::optional<ClusteredFaultGen> clustered_faults;
};

constexpr auto fields_of(const ConfigGenerators*) {
  using G = ConfigGenerators;
  return std::tuple{
      Field<&G::derive>{"params.derive"},
      Field<&G::layer0_pattern>{"layer0_pattern"},
      Field<&G::random_faults>{"random_faults"},
      Field<&G::clustered_faults>{"clustered_faults"},
  };
}
GTRIX_CKPT_FIELDS(ConfigGenerators, 4);

}  // namespace gtrix
