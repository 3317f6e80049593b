// The CSR adjacency of Grid and Network against per-node reference lists
// built the straightforward way: one vector per node, filled in edge order.
// Equal lists in equal order matter beyond lookup: a node's predecessor
// order is its slot order, and a sender's out-edge order is the order
// broadcast() sends in and kBatchDeliver fans out in, which fixes event
// sequence numbers.
#include <gtest/gtest.h>

#include <vector>

#include "runner/experiment.hpp"

namespace gtrix {
namespace {

using Lists = std::vector<std::vector<std::uint32_t>>;

/// Grid lists as "own copy first, then neighbour copies in base-id order"
/// on the previous (preds) or next (succs) layer.
Lists reference_grid_lists(const Grid& grid, bool preds) {
  Lists lists(grid.node_count());
  for (GridNodeId g = 0; g < grid.node_count(); ++g) {
    const std::uint32_t l = grid.layer_of(g);
    const BaseNodeId v = grid.base_of(g);
    if (preds ? l == 0 : l + 1 == grid.layers()) continue;
    const std::uint32_t other = preds ? l - 1 : l + 1;
    lists[g].push_back(grid.id(v, other));
    for (BaseNodeId w : grid.base().neighbors(v)) lists[g].push_back(grid.id(w, other));
  }
  return lists;
}

/// Network out-lists by appending every edge id, in id order, to its
/// sender's list.
Lists reference_out_lists(const Network& net) {
  Lists out(net.node_count());
  for (EdgeId e = 0; e < net.edge_count(); ++e) out[net.edge_from(e)].push_back(e);
  return out;
}

template <typename Span>
std::vector<std::uint32_t> as_vector(Span span) {
  return {span.begin(), span.end()};
}

void expect_csr_matches_reference(World& world) {
  const Grid& grid = world.grid();
  const Lists preds = reference_grid_lists(grid, true);
  const Lists succs = reference_grid_lists(grid, false);
  std::uint64_t grid_edges = 0;
  for (GridNodeId g = 0; g < grid.node_count(); ++g) {
    EXPECT_EQ(as_vector(grid.predecessors(g)), preds[g]) << "preds of " << grid.label(g);
    EXPECT_EQ(as_vector(grid.successors(g)), succs[g]) << "succs of " << grid.label(g);
    grid_edges += succs[g].size();
  }
  EXPECT_EQ(grid.edge_count(), grid_edges);

  const Network& net = world.network();
  const Lists out = reference_out_lists(net);
  for (NetNodeId n = 0; n < net.node_count(); ++n) {
    EXPECT_EQ(as_vector(net.out_edges(n)), out[n]) << "out-edges of node " << n;
  }
}

TEST(Adjacency, LineReplicatedWithLayer0LineEdgesMatchesPerNodeLists) {
  ExperimentConfig config;
  config.columns = 7;
  config.layers = 5;
  config.pulses = 4;
  config.layer0 = Layer0Mode::kLinePropagation;
  // Line mode adds the clock source and the layer-0 line edges after every
  // inter-layer edge, so layer-0 senders' lists interleave two edge groups.
  World world(config);
  ASSERT_GT(world.network().node_count(), world.grid().node_count());
  expect_csr_matches_reference(world);
}

TEST(Adjacency, TorusMatchesPerNodeLists) {
  ExperimentConfig config;
  config.topology_spec = ComponentSpec::of("torus");
  config.topology_spec.params.set("rows", 3);
  config.columns = 5;
  config.layers = 4;
  config.pulses = 4;
  World world(config);
  expect_csr_matches_reference(world);
}

TEST(Adjacency, EdgesAddedAfterAQueryRebuildTheLists) {
  Simulator sim;
  Network net(sim);
  const NetNodeId a = net.add_node();
  const NetNodeId b = net.add_node();
  const EdgeId ab = net.add_edge(a, b, 1.0);
  ASSERT_EQ(as_vector(net.out_edges(a)), std::vector<std::uint32_t>{ab});
  const NetNodeId c = net.add_node();
  const EdgeId ca = net.add_edge(c, a, 2.0);
  const EdgeId ac = net.add_edge(a, c, 3.0);
  EXPECT_EQ(as_vector(net.out_edges(a)), (std::vector<std::uint32_t>{ab, ac}));
  EXPECT_EQ(as_vector(net.out_edges(c)), std::vector<std::uint32_t>{ca});
  EXPECT_TRUE(net.out_edges(b).empty());
}

}  // namespace
}  // namespace gtrix
