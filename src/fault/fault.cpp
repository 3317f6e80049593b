#include "fault/fault.hpp"

#include <algorithm>
#include <set>
#include <string>

#include "support/check.hpp"
#include "support/json.hpp"

namespace gtrix {

namespace {

// By enumerator value.
constexpr std::string_view kFaultNames[] = {"crash",  "mute-after", "static-offset",
                                            "split",  "jitter",     "fixed-period"};

}  // namespace

std::string_view to_string(FaultKind v) { return kFaultNames[static_cast<std::size_t>(v)]; }

FaultKind fault_kind_from_string(std::string_view s) {
  return enum_from_name<FaultKind>(kFaultNames, s, "fault kind");
}

FaultSpec FaultSpec::static_offset(double offset) {
  FaultSpec s;
  s.kind = FaultKind::kStaticOffset;
  s.offset = offset;
  return s;
}

FaultSpec FaultSpec::split(double alpha) {
  FaultSpec s;
  s.kind = FaultKind::kSplit;
  s.alpha = alpha;
  return s;
}

FaultSpec FaultSpec::jitter(double alpha) {
  FaultSpec s;
  s.kind = FaultKind::kJitter;
  s.alpha = alpha;
  return s;
}

FaultSpec FaultSpec::fixed_period(double period) {
  FaultSpec s;
  s.kind = FaultKind::kFixedPeriod;
  s.period = period;
  return s;
}

FaultSpec FaultSpec::mute_after(std::int64_t after) {
  FaultSpec s;
  s.kind = FaultKind::kMuteAfter;
  s.after = after;
  return s;
}

std::vector<PlacedFault> sample_iid_faults(const Grid& grid, const PlacementOptions& options,
                                           const FaultSpec& spec, Rng& rng) {
  for (std::uint32_t attempt = 0; attempt < options.max_attempts; ++attempt) {
    std::vector<PlacedFault> faults;
    for (std::uint32_t layer = options.exclude_layer0 ? 1 : 0; layer < grid.layers();
         ++layer) {
      for (BaseNodeId v = 0; v < grid.base().node_count(); ++v) {
        if (rng.bernoulli(options.probability)) {
          faults.push_back(PlacedFault{v, layer, spec});
        }
      }
    }
    if (!options.enforce_one_local || is_one_local(grid, faults)) return faults;
  }
  GTRIX_CHECK_MSG(false, "could not sample a 1-local fault set; p too large");
  return {};
}

std::vector<PlacedFault> clustered_faults(const Grid& grid, std::uint32_t f,
                                          std::uint32_t column, std::uint32_t start_layer,
                                          std::uint32_t stride, const FaultSpec& spec) {
  GTRIX_CHECK_MSG(stride >= 1, "stride must be at least 1");
  GTRIX_CHECK_MSG(column < grid.base().column_count(), "column out of range");
  std::vector<PlacedFault> faults;
  const BaseNodeId base = grid.base().nodes_in_column(column).front();
  std::uint32_t layer = start_layer;
  for (std::uint32_t i = 0; i < f; ++i) {
    GTRIX_CHECK_MSG(layer < grid.layers(), "fault cluster exceeds layer count");
    faults.push_back(PlacedFault{base, layer, spec});
    layer += stride;
  }
  GTRIX_CHECK_MSG(is_one_local(grid, faults), "clustered faults violate 1-locality");
  return faults;
}

std::vector<GridNodeId> locality_violations(const Grid& grid,
                                            const std::vector<PlacedFault>& faults,
                                            std::uint32_t max_faulty_preds) {
  std::set<GridNodeId> fault_set;
  for (const auto& f : faults) fault_set.insert(grid.id(f.base, f.layer));
  std::vector<GridNodeId> violations;
  if (fault_set.size() != faults.size()) {
    // Duplicate fault placements: report them all.
    for (const auto& f : faults) violations.push_back(grid.id(f.base, f.layer));
    return violations;
  }
  for (GridNodeId g = 0; g < grid.node_count(); ++g) {
    std::uint32_t faulty_preds = 0;
    for (GridNodeId p : grid.predecessors(g)) {
      if (fault_set.contains(p)) ++faulty_preds;
    }
    if (faulty_preds > max_faulty_preds) violations.push_back(g);
  }
  return violations;
}

std::vector<GridNodeId> one_locality_violations(const Grid& grid,
                                                const std::vector<PlacedFault>& faults) {
  return locality_violations(grid, faults, 1);
}

bool is_one_local(const Grid& grid, const std::vector<PlacedFault>& faults) {
  return one_locality_violations(grid, faults).empty();
}

}  // namespace gtrix
