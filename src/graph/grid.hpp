// The layered synchronization graph G (paper §2, "Network Graph", Fig. 3).
//
// For each layer l in [0, layers) there is a copy of every base-graph node;
// node (v, l) has an edge to (w, l+1) whenever {v, w} in E or v == w. The
// edge to the copy of itself carries the node's "own" local time forward
// (H_own in the algorithm); edges to neighbour copies carry the offset
// estimates (H_min / H_max).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/base_graph.hpp"

namespace gtrix {

using GridNodeId = std::uint32_t;

class Grid {
 public:
  Grid(BaseGraph base, std::uint32_t layers);

  const BaseGraph& base() const noexcept { return base_; }
  std::uint32_t layers() const noexcept { return layers_; }
  std::uint32_t node_count() const noexcept { return layers_ * base_.node_count(); }

  GridNodeId id(BaseNodeId v, std::uint32_t layer) const;
  BaseNodeId base_of(GridNodeId id) const { return id % base_.node_count(); }
  std::uint32_t layer_of(GridNodeId id) const { return id / base_.node_count(); }

  /// In-neighbours of (v, l), l >= 1. The first entry is always the node's
  /// own copy (v, l-1); the rest are neighbour copies in base-id order. The
  /// span points into the Grid and stays valid for the Grid's lifetime.
  std::span<const GridNodeId> predecessors(GridNodeId id) const;

  /// Out-neighbours on the next layer (empty for the last layer). The first
  /// entry is the node's own copy (v, l+1).
  std::span<const GridNodeId> successors(GridNodeId id) const;

  /// Number of in-neighbours excluding the own copy (= deg_H(v)).
  std::uint32_t neighbor_pred_count(GridNodeId id) const {
    return static_cast<std::uint32_t>(predecessors(id).size()) - 1;
  }

  std::string label(GridNodeId id) const;

  /// Total number of inter-layer directed edges.
  std::uint64_t edge_count() const noexcept;

 private:
  BaseGraph base_;
  std::uint32_t layers_;
  // Materialized lists in CSR form: node g's predecessors are
  // pred_ids_[pred_off_[g] .. pred_off_[g + 1]), likewise for successors.
  // Built once in the constructor and never resized: algorithm nodes keep
  // spans into pred_ids_ as their slot order.
  std::vector<std::uint32_t> pred_off_;
  std::vector<GridNodeId> pred_ids_;
  std::vector<std::uint32_t> succ_off_;
  std::vector<GridNodeId> succ_ids_;
};

}  // namespace gtrix
