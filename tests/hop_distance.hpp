// Hop distances in a base graph, a test oracle: BaseGraph keeps only its
// diameter, so the wiring tests and the Definition 4.1 potentials
// (potentials.hpp) compute d(v, w) here.
#pragma once

#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "graph/base_graph.hpp"

namespace gtrix {

/// dist[a][b] = hop distance from a to b in H, by one BFS per source;
/// unreachable pairs read the uint32 maximum.
inline std::vector<std::vector<std::uint32_t>> hop_distances(const BaseGraph& g) {
  constexpr std::uint32_t kUnreached = std::numeric_limits<std::uint32_t>::max();
  const std::uint32_t n = g.node_count();
  std::vector<std::vector<std::uint32_t>> dist(n, std::vector<std::uint32_t>(n, kUnreached));
  for (BaseNodeId src = 0; src < n; ++src) {
    std::vector<std::uint32_t>& d = dist[src];
    d[src] = 0;
    std::queue<BaseNodeId> frontier;
    frontier.push(src);
    while (!frontier.empty()) {
      const BaseNodeId v = frontier.front();
      frontier.pop();
      for (const BaseNodeId w : g.neighbors(v)) {
        if (d[w] == kUnreached) {
          d[w] = d[v] + 1;
          frontier.push(w);
        }
      }
    }
  }
  return dist;
}

}  // namespace gtrix
