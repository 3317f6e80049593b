#include "graph/base_graph.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "support/check.hpp"

namespace gtrix {

namespace {
constexpr std::uint32_t kUnreached = std::numeric_limits<std::uint32_t>::max();
}

BaseGraph BaseGraph::line_replicated(std::uint32_t columns) {
  GTRIX_CHECK_MSG(columns >= 2, "line needs at least 2 columns");
  BaseGraph g;
  g.column_count_ = columns;
  // Node layout: 0 and 1 are the two replicas in column 0; 2 .. columns-1
  // are the interior nodes of columns 1 .. columns-2; the last two ids are
  // the replicas in column columns-1.
  const std::uint32_t interior = columns - 2;
  const std::uint32_t n = 2 + interior + 2;
  g.adjacency_.resize(n);
  g.columns_.resize(n);
  g.is_replica_.assign(n, false);
  g.column_nodes_.resize(columns);

  const BaseNodeId left_a = 0, left_b = 1;
  const BaseNodeId right_a = n - 2, right_b = n - 1;
  auto interior_id = [&](std::uint32_t c) -> BaseNodeId { return 1 + c; };  // c in [1, columns-2]

  g.columns_[left_a] = 0;
  g.columns_[left_b] = 0;
  g.is_replica_[left_b] = true;
  g.column_nodes_[0] = {left_a, left_b};
  for (std::uint32_t c = 1; c + 1 < columns; ++c) {
    g.columns_[interior_id(c)] = c;
    g.column_nodes_[c] = {interior_id(c)};
  }
  g.columns_[right_a] = columns - 1;
  g.columns_[right_b] = columns - 1;
  g.is_replica_[right_b] = true;
  g.column_nodes_[columns - 1] = {right_a, right_b};

  auto connect = [&](BaseNodeId a, BaseNodeId b) {
    g.adjacency_[a].push_back(b);
    g.adjacency_[b].push_back(a);
  };
  connect(left_a, left_b);
  connect(right_a, right_b);
  if (columns == 2) {
    // Degenerate case: two replicated columns facing each other.
    connect(left_a, right_a);
    connect(left_a, right_b);
    connect(left_b, right_a);
    connect(left_b, right_b);
  } else {
    connect(left_a, interior_id(1));
    connect(left_b, interior_id(1));
    for (std::uint32_t c = 1; c + 2 < columns; ++c) connect(interior_id(c), interior_id(c + 1));
    connect(interior_id(columns - 2), right_a);
    connect(interior_id(columns - 2), right_b);
  }
  g.finalize();
  return g;
}

BaseGraph BaseGraph::cycle(std::uint32_t n) { return cycle_wide(n, 1); }

BaseGraph BaseGraph::cycle_wide(std::uint32_t n, std::uint32_t reach) {
  GTRIX_CHECK_MSG(reach >= 1, "reach must be at least 1");
  GTRIX_CHECK_MSG(n > 2 * reach, "cycle needs more than 2*reach nodes");
  BaseGraph g;
  g.column_count_ = n;
  g.adjacency_.resize(n);
  g.columns_.resize(n);
  g.is_replica_.assign(n, false);
  g.column_nodes_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    g.columns_[i] = i;
    g.column_nodes_[i] = {i};
    for (std::uint32_t hop = 1; hop <= reach; ++hop) {
      const BaseNodeId next = (i + hop) % n;
      g.adjacency_[i].push_back(next);
      g.adjacency_[next].push_back(i);
    }
  }
  g.finalize();
  return g;
}

BaseGraph BaseGraph::torus(std::uint32_t rows, std::uint32_t cols) {
  GTRIX_CHECK_MSG(rows >= 3, "torus needs at least 3 rows");
  GTRIX_CHECK_MSG(cols >= 3, "torus needs at least 3 columns");
  BaseGraph g;
  g.column_count_ = cols;
  const std::uint32_t n = rows * cols;
  g.adjacency_.resize(n);
  g.columns_.resize(n);
  g.is_replica_.assign(n, false);
  g.column_nodes_.resize(cols);
  auto id = [&](std::uint32_t r, std::uint32_t c) -> BaseNodeId { return r * cols + c; };
  auto connect = [&](BaseNodeId a, BaseNodeId b) {
    g.adjacency_[a].push_back(b);
    g.adjacency_[b].push_back(a);
  };
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t c = 0; c < cols; ++c) {
      const BaseNodeId v = id(r, c);
      g.columns_[v] = c;
      g.column_nodes_[c].push_back(v);
      connect(v, id(r, (c + 1) % cols));
      connect(v, id((r + 1) % rows, c));
    }
  }
  g.finalize();
  return g;
}

BaseGraph BaseGraph::path(std::uint32_t n) {
  GTRIX_CHECK_MSG(n >= 2, "path needs at least 2 nodes");
  BaseGraph g;
  g.column_count_ = n;
  g.adjacency_.resize(n);
  g.columns_.resize(n);
  g.is_replica_.assign(n, false);
  g.column_nodes_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    g.columns_[i] = i;
    g.column_nodes_[i] = {i};
    if (i + 1 < n) {
      g.adjacency_[i].push_back(i + 1);
      g.adjacency_[i + 1].push_back(i);
    }
  }
  g.finalize();
  return g;
}

void BaseGraph::finalize() {
  for (auto& nbrs : adjacency_) std::sort(nbrs.begin(), nbrs.end());
  const std::uint32_t n = node_count();
  // One BFS per source, into one reused distance row: the diameter and the
  // connectivity check need no all-pairs table.
  std::vector<std::uint32_t> d(n);
  diameter_ = 0;
  for (std::uint32_t src = 0; src < n; ++src) {
    std::fill(d.begin(), d.end(), kUnreached);
    d[src] = 0;
    std::queue<BaseNodeId> frontier;
    frontier.push(src);
    while (!frontier.empty()) {
      const BaseNodeId v = frontier.front();
      frontier.pop();
      for (BaseNodeId w : adjacency_[v]) {
        if (d[w] == kUnreached) {
          d[w] = d[v] + 1;
          frontier.push(w);
        }
      }
    }
    for (std::uint32_t other = 0; other < n; ++other) {
      GTRIX_CHECK_MSG(d[other] != kUnreached, "base graph must be connected");
      diameter_ = std::max(diameter_, d[other]);
    }
  }
}

std::uint32_t BaseGraph::edge_count() const {
  std::uint32_t twice = 0;
  for (const auto& nbrs : adjacency_) twice += static_cast<std::uint32_t>(nbrs.size());
  return twice / 2;
}

std::span<const BaseNodeId> BaseGraph::neighbors(BaseNodeId v) const {
  return adjacency_.at(v);
}

bool BaseGraph::has_edge(BaseNodeId a, BaseNodeId b) const {
  const auto nbrs = neighbors(a);
  return std::binary_search(nbrs.begin(), nbrs.end(), b);
}

std::uint32_t BaseGraph::min_degree() const {
  std::uint32_t m = std::numeric_limits<std::uint32_t>::max();
  for (const auto& nbrs : adjacency_) m = std::min(m, static_cast<std::uint32_t>(nbrs.size()));
  return m;
}

std::uint32_t BaseGraph::max_degree() const {
  std::uint32_t m = 0;
  for (const auto& nbrs : adjacency_) m = std::max(m, static_cast<std::uint32_t>(nbrs.size()));
  return m;
}

std::span<const BaseNodeId> BaseGraph::nodes_in_column(std::uint32_t c) const {
  return column_nodes_.at(c);
}

std::string BaseGraph::label(BaseNodeId v) const {
  std::string s = "v";  // not `"v" + std::to_string(...)`: GCC 12 -Wrestrict
  s += std::to_string(columns_.at(v));
  if (is_replica_.at(v)) s += "'";
  return s;
}

std::vector<std::pair<BaseNodeId, BaseNodeId>> BaseGraph::edges() const {
  std::vector<std::pair<BaseNodeId, BaseNodeId>> out;
  for (BaseNodeId a = 0; a < node_count(); ++a) {
    for (BaseNodeId b : adjacency_[a]) {
      if (a < b) out.emplace_back(a, b);
    }
  }
  return out;
}

}  // namespace gtrix
