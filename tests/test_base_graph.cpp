#include "graph/base_graph.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "hop_distance.hpp"

namespace gtrix {
namespace {

TEST(LineReplicated, NodeAndEdgeCounts) {
  // columns interior + 2 replicas each end: n = columns + 2.
  const BaseGraph g = BaseGraph::line_replicated(8);
  EXPECT_EQ(g.node_count(), 10u);
  // Edges: 2 replica edges + 2x2 fan edges + (columns-3) interior chain.
  EXPECT_EQ(g.edge_count(), 2u + 4u + 5u);
}

TEST(LineReplicated, MinimumDegreeTwo) {
  for (std::uint32_t columns : {2u, 3u, 4u, 8u, 33u}) {
    const BaseGraph g = BaseGraph::line_replicated(columns);
    EXPECT_GE(g.min_degree(), 2u) << "columns=" << columns;
  }
}

TEST(LineReplicated, DegreeProfile) {
  const BaseGraph g = BaseGraph::line_replicated(8);
  std::multiset<std::uint32_t> degrees;
  for (BaseNodeId v = 0; v < g.node_count(); ++v) degrees.insert(g.degree(v));
  // Replicas have degree 2 (partner + first interior), the two interior
  // nodes adjacent to the replica pairs have degree 3, the rest degree 2.
  EXPECT_EQ(degrees.count(2), 8u);
  EXPECT_EQ(degrees.count(3), 2u);
  EXPECT_EQ(g.max_degree(), 3u);
}

TEST(LineReplicated, DiameterIsColumnsMinusOne) {
  for (std::uint32_t columns : {3u, 4u, 16u, 65u}) {
    EXPECT_EQ(BaseGraph::line_replicated(columns).diameter(), columns - 1)
        << "columns=" << columns;
  }
}

TEST(LineReplicated, ColumnsAssignReplicasTogether) {
  const BaseGraph g = BaseGraph::line_replicated(5);
  EXPECT_EQ(g.nodes_in_column(0).size(), 2u);
  EXPECT_EQ(g.nodes_in_column(4).size(), 2u);
  for (std::uint32_t c = 1; c < 4; ++c) EXPECT_EQ(g.nodes_in_column(c).size(), 1u);
  for (BaseNodeId v : g.nodes_in_column(0)) EXPECT_EQ(g.column(v), 0u);
  for (BaseNodeId v : g.nodes_in_column(4)) EXPECT_EQ(g.column(v), 4u);
}

TEST(LineReplicated, ReplicasAreConnected) {
  const BaseGraph g = BaseGraph::line_replicated(6);
  const auto left = g.nodes_in_column(0);
  const auto right = g.nodes_in_column(5);
  EXPECT_TRUE(g.has_edge(left[0], left[1]));
  EXPECT_TRUE(g.has_edge(right[0], right[1]));
  EXPECT_EQ(hop_distances(g)[left[0]][left[1]], 1u);
}

TEST(LineReplicated, DistancesMatchColumns) {
  const BaseGraph g = BaseGraph::line_replicated(7);
  const BaseNodeId a = g.nodes_in_column(1).front();
  const BaseNodeId b = g.nodes_in_column(5).front();
  const auto dist = hop_distances(g);
  EXPECT_EQ(dist[a][b], 4u);
  EXPECT_EQ(dist[a][a], 0u);
  EXPECT_EQ(dist[a][b], dist[b][a]);
}

TEST(LineReplicated, LabelsAreReadable) {
  const BaseGraph g = BaseGraph::line_replicated(4);
  const auto left = g.nodes_in_column(0);
  EXPECT_EQ(g.label(left[0]), "v0");
  EXPECT_EQ(g.label(left[1]), "v0'");
}

TEST(LineReplicated, TwoColumnDegenerate) {
  const BaseGraph g = BaseGraph::line_replicated(2);
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_GE(g.min_degree(), 2u);
  EXPECT_EQ(g.diameter(), 1u);  // complete-ish coupling of the two pairs
}

TEST(LineReplicated, TooFewColumnsRejected) {
  EXPECT_THROW(BaseGraph::line_replicated(1), std::logic_error);
}

TEST(Cycle, BasicProperties) {
  const BaseGraph g = BaseGraph::cycle(8);
  EXPECT_EQ(g.node_count(), 8u);
  EXPECT_EQ(g.edge_count(), 8u);
  EXPECT_EQ(g.min_degree(), 2u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_EQ(g.diameter(), 4u);
  EXPECT_EQ(hop_distances(g)[0][5], 3u);  // around the short side
}

TEST(Cycle, OddCycleDiameter) {
  EXPECT_EQ(BaseGraph::cycle(7).diameter(), 3u);
}

TEST(Cycle, TooSmallRejected) {
  EXPECT_THROW(BaseGraph::cycle(2), std::logic_error);
}

TEST(Path, BasicProperties) {
  const BaseGraph g = BaseGraph::path(5);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_EQ(g.min_degree(), 1u);
  EXPECT_EQ(g.diameter(), 4u);
  EXPECT_EQ(hop_distances(g)[0][4], 4u);
}

TEST(EdgesList, MatchesAdjacency) {
  const BaseGraph g = BaseGraph::line_replicated(6);
  const auto edges = g.edges();
  EXPECT_EQ(edges.size(), g.edge_count());
  for (const auto& [a, b] : edges) {
    EXPECT_LT(a, b);
    EXPECT_TRUE(g.has_edge(a, b));
    EXPECT_TRUE(g.has_edge(b, a));
  }
}

TEST(Distances, TriangleInequalityHolds) {
  const BaseGraph g = BaseGraph::line_replicated(9);
  const auto dist = hop_distances(g);
  for (BaseNodeId a = 0; a < g.node_count(); ++a) {
    for (BaseNodeId b = 0; b < g.node_count(); ++b) {
      for (BaseNodeId c = 0; c < g.node_count(); ++c) {
        EXPECT_LE(dist[a][c], dist[a][b] + dist[b][c]);
      }
    }
  }
}

}  // namespace
}  // namespace gtrix
