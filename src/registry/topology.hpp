// TopologyProvider: pluggable base-graph construction.
//
// Built-ins: line-replicated (paper default, Fig. 2), cycle (with the
// "Bigger Picture" item-3 reach parameter), path, and torus (2D wraparound
// grid -- scenario diversity beyond the paper's line, min degree 4).
#pragma once

#include <cstdint>

#include "graph/base_graph.hpp"
#include "registry/registry.hpp"

namespace gtrix {

/// Config-level inputs a topology may read. `columns` is the shared size
/// knob ("columns" in scenario JSON): the column count of the built graph,
/// which sweeps, layer-0 wiring and wavefront metrics all key off.
struct TopologyContext {
  std::uint32_t columns = 2;
};

class TopologyProvider {
 public:
  virtual ~TopologyProvider() = default;

  /// Builds the base graph. Must be deterministic in (params, ctx).
  virtual BaseGraph build(const TopologyContext& ctx) const = 0;
};

/// Global registry; built-ins register on first access.
ComponentRegistry<TopologyProvider>& topology_registry();

}  // namespace gtrix
