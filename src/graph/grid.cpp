#include "graph/grid.hpp"

#include "support/check.hpp"

namespace gtrix {

Grid::Grid(BaseGraph base, std::uint32_t layers) : base_(std::move(base)), layers_(layers) {
  GTRIX_CHECK_MSG(layers >= 1, "grid needs at least one layer");
  const std::uint32_t bn = base_.node_count();
  // The node-id space is uint32 with one sentinel reserved (the line-mode
  // clock source gets id node_count). Check the 64-bit products BEFORE any
  // per-node allocation, so an overflowing mega-grid shape fails with the
  // offending dimensions instead of truncating into a small wrong grid.
  const std::uint32_t nodes =
      checked_u32_mul(layers, bn,
                      "grid node count (" + std::to_string(layers) + " layers x " +
                          std::to_string(bn) + " base nodes)");
  // Every layer boundary carries the same lists: each base node's own copy
  // plus its neighbours.
  std::uint64_t per_layer = 0;
  for (BaseNodeId v = 0; v < bn; ++v) per_layer += 1 + base_.degree(v);
  const std::uint32_t edges = checked_u32_mul(
      layers - 1, checked_u32(per_layer, "grid edges per layer"),
      "grid edge count (" + std::to_string(layers - 1) + " layer boundaries x " +
          std::to_string(per_layer) + " edges)");

  // CSR build: node g's list is ids[off[g] .. off[g+1]), own copy first and
  // then the neighbour copies in base-id order, all on the previous layer
  // (predecessors) or the next one (successors).
  const auto build = [&](std::vector<std::uint32_t>& off, std::vector<GridNodeId>& ids,
                         bool preds) {
    off.reserve(static_cast<std::size_t>(nodes) + 1);
    ids.reserve(edges);
    off.push_back(0);
    for (GridNodeId g = 0; g < nodes; ++g) {
      const std::uint32_t l = g / bn;
      const BaseNodeId v = g % bn;
      if (preds ? l >= 1 : l + 1 < layers_) {
        const std::uint32_t other = preds ? l - 1 : l + 1;
        ids.push_back(id(v, other));
        for (BaseNodeId w : base_.neighbors(v)) ids.push_back(id(w, other));
      }
      off.push_back(static_cast<std::uint32_t>(ids.size()));
    }
  };
  build(pred_off_, pred_ids_, true);
  build(succ_off_, succ_ids_, false);
}

GridNodeId Grid::id(BaseNodeId v, std::uint32_t layer) const {
  GTRIX_CHECK(v < base_.node_count() && layer < layers_);
  return layer * base_.node_count() + v;
}

std::span<const GridNodeId> Grid::predecessors(GridNodeId id) const {
  GTRIX_CHECK(id < node_count());
  return {pred_ids_.data() + pred_off_[id], pred_off_[id + 1] - pred_off_[id]};
}

std::span<const GridNodeId> Grid::successors(GridNodeId id) const {
  GTRIX_CHECK(id < node_count());
  return {succ_ids_.data() + succ_off_[id], succ_off_[id + 1] - succ_off_[id]};
}

std::string Grid::label(GridNodeId id) const {
  // Appended piecewise: GCC 12 flags `"(" + std::string&&` (-Wrestrict).
  std::string s = "(";
  s += base_.label(base_of(id));
  s += ", ";
  s += std::to_string(layer_of(id));
  s += ')';
  return s;
}

std::uint64_t Grid::edge_count() const noexcept { return succ_ids_.size(); }

}  // namespace gtrix
