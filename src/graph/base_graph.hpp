// Base graphs H = (V, E) from which the synchronization grid is built
// (paper §2, Fig. 2). The algorithm requires minimum degree 2.
//
// The default is the paper's choice: a line whose two end nodes are
// replicated and connected ("line with replicated and connected endpoints",
// Fig. 2 and footnote 3), giving minimum degree 2 while staying physically
// routable on a square chip. A cycle (the theoretically cleanest choice) and
// a bare path (minimum degree 1; useful for layer-0-style tests only) are
// also provided.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace gtrix {

using BaseNodeId = std::uint32_t;

class BaseGraph {
 public:
  /// Line over `columns >= 2` columns with replicated, connected endpoints.
  /// Column 0 and column columns-1 each hold two replica nodes; interior
  /// columns hold one node. Diameter = columns - 1.
  static BaseGraph line_replicated(std::uint32_t columns);

  /// Cycle on `n >= 3` nodes. Diameter = floor(n / 2).
  static BaseGraph cycle(std::uint32_t n);

  /// Cycle where node i is adjacent to all nodes within hop distance
  /// `reach` (degree 2*reach). The grid built on it has in-degree
  /// 2*reach + 1 -- the topology the paper's "Bigger Picture" item (3)
  /// proposes for tolerating f = reach local faults with minimal degree.
  /// Requires n > 2 * reach.
  static BaseGraph cycle_wide(std::uint32_t n, std::uint32_t reach);

  /// Path on `n >= 2` nodes (minimum degree 1).
  static BaseGraph path(std::uint32_t n);

  /// 2D torus: `rows` rings of `cols` nodes, wrapping in both dimensions.
  /// Node (r, c) sits in column c; min degree 4, diameter
  /// floor(rows/2) + floor(cols/2). Requires rows >= 3 and cols >= 3 so the
  /// wraparound creates no parallel edges.
  static BaseGraph torus(std::uint32_t rows, std::uint32_t cols);

  std::uint32_t node_count() const noexcept { return static_cast<std::uint32_t>(adjacency_.size()); }
  std::uint32_t edge_count() const;

  std::span<const BaseNodeId> neighbors(BaseNodeId v) const;
  bool has_edge(BaseNodeId a, BaseNodeId b) const;

  std::uint32_t degree(BaseNodeId v) const { return static_cast<std::uint32_t>(neighbors(v).size()); }
  std::uint32_t min_degree() const;
  std::uint32_t max_degree() const;

  /// Graph diameter D.
  std::uint32_t diameter() const noexcept { return diameter_; }

  /// Geometric column of a node along the line / index around the cycle.
  /// Replicated endpoints share the column of the endpoint they copy. Used
  /// by the wavefront (sigma) metrics re-indexing and by layer-0 wiring.
  std::uint32_t column(BaseNodeId v) const { return columns_.at(v); }
  std::uint32_t column_count() const noexcept { return column_count_; }

  /// All nodes in a given column (1 or 2 nodes for the line; 1 for others).
  std::span<const BaseNodeId> nodes_in_column(std::uint32_t c) const;

  /// Human-readable node label, e.g. "v3" or "v0'" for a replica.
  std::string label(BaseNodeId v) const;

  /// All edges as (a, b) pairs with a < b.
  std::vector<std::pair<BaseNodeId, BaseNodeId>> edges() const;

 private:
  BaseGraph() = default;
  void finalize();  // sorts adjacency, checks connectivity, computes the diameter

  std::vector<std::vector<BaseNodeId>> adjacency_;
  std::vector<std::uint32_t> columns_;
  std::vector<std::vector<BaseNodeId>> column_nodes_;
  std::uint32_t column_count_ = 0;
  std::uint32_t diameter_ = 0;
  std::vector<bool> is_replica_;
};

}  // namespace gtrix
