#include "registry/topology.hpp"

namespace gtrix {

namespace {

class LineReplicatedTopology final : public TopologyProvider {
 public:
  BaseGraph build(const TopologyContext& ctx) const override {
    return BaseGraph::line_replicated(ctx.columns);
  }
};

class CycleTopology final : public TopologyProvider {
 public:
  explicit CycleTopology(std::uint32_t reach) : reach_(reach) {}
  BaseGraph build(const TopologyContext& ctx) const override {
    return BaseGraph::cycle_wide(ctx.columns, reach_);
  }

 private:
  std::uint32_t reach_;
};

class PathTopology final : public TopologyProvider {
 public:
  BaseGraph build(const TopologyContext& ctx) const override {
    return BaseGraph::path(ctx.columns);
  }
};

class TorusTopology final : public TopologyProvider {
 public:
  explicit TorusTopology(std::uint32_t rows) : rows_(rows) {}
  BaseGraph build(const TopologyContext& ctx) const override {
    return BaseGraph::torus(rows_, ctx.columns);
  }

 private:
  std::uint32_t rows_;
};

void register_builtins(ComponentRegistry<TopologyProvider>& reg) {
  reg.add("line-replicated",
          "line with replicated, connected endpoints (paper default, Fig. 2)", {},
          [](const ComponentSpec&) { return std::make_shared<const LineReplicatedTopology>(); });
  reg.add("cycle", "cycle over `columns` nodes; `reach` widens adjacency to 2*reach",
          {{"reach", ParamType::kInt, Json(1),
            "hop distance considered adjacent (degree 2*reach); reach f tolerates f local "
            "faults with the trimmed extension",
            1}},
          [](const ComponentSpec& spec) {
            return std::make_shared<const CycleTopology>(
                static_cast<std::uint32_t>(spec.params.at("reach").as_int()));
          });
  reg.add("path", "bare path (min degree 1; layer-0-style tests only)", {},
          [](const ComponentSpec&) { return std::make_shared<const PathTopology>(); });
  reg.add("torus", "2D wraparound grid: `rows` rings of `columns` nodes (min degree 4)",
          {{"rows", ParamType::kInt, Json(3),
            "ring count in the second dimension (>= 3 for the wraparound); every column "
            "holds `rows` nodes",
            3}},
          [](const ComponentSpec& spec) {
            return std::make_shared<const TorusTopology>(
                static_cast<std::uint32_t>(spec.params.at("rows").as_int()));
          });
}

}  // namespace

ComponentRegistry<TopologyProvider>& topology_registry() {
  static ComponentRegistry<TopologyProvider>* registry = [] {
    auto* reg = new ComponentRegistry<TopologyProvider>("base graph");
    register_builtins(*reg);
    return reg;
  }();
  return *registry;
}

}  // namespace gtrix
