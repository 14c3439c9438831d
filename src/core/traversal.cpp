#include "core/traversal.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "support/check.hpp"

namespace wsf::core {

std::vector<NodeId> topological_order(const Graph& g) {
  const std::size_t n = g.num_nodes();
  std::vector<std::uint32_t> pending(n);
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<NodeId> frontier;
  for (NodeId id = 0; id < static_cast<NodeId>(n); ++id) {
    pending[id] = static_cast<std::uint32_t>(g.in_degree(id));
    if (pending[id] == 0) frontier.push_back(id);
  }
  while (!frontier.empty()) {
    const NodeId cur = frontier.back();
    frontier.pop_back();
    order.push_back(cur);
    for (const HalfEdge& out : g.successors(cur)) {
      WSF_DCHECK(pending[out.node] > 0);
      if (--pending[out.node] == 0) frontier.push_back(out.node);
    }
  }
  return order;
}

std::vector<std::uint32_t> longest_path_from_root(const Graph& g) {
  const std::vector<NodeId> topo = topological_order(g);
  WSF_CHECK(topo.size() == g.num_nodes(), "longest path requires a DAG");
  std::vector<std::uint32_t> dist(g.num_nodes(), 0);
  dist[g.root()] = 1;
  for (NodeId cur : topo) {
    if (dist[cur] == 0) continue;  // unreachable from root (validate forbids)
    for (const HalfEdge& out : g.successors(cur))
      dist[out.node] = std::max(dist[out.node], dist[cur] + 1);
  }
  return dist;
}

std::uint32_t span(const Graph& g) {
  const auto dist = longest_path_from_root(g);
  std::uint32_t best = 0;
  for (auto d : dist) best = std::max(best, d);
  return best;
}

std::vector<char> reachable_from(const Graph& g, NodeId from) {
  std::vector<char> seen(g.num_nodes(), 0);
  std::vector<NodeId> stack{from};
  seen[from] = 1;
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    for (const HalfEdge& out : g.successors(cur)) {
      if (!seen[out.node]) {
        seen[out.node] = 1;
        stack.push_back(out.node);
      }
    }
  }
  return seen;
}

bool is_descendant(const Graph& g, NodeId ancestor, NodeId descendant) {
  if (ancestor == descendant) return true;
  // Depth-first search with early exit; fine at the scales classification
  // runs at (tests and example graphs).
  std::vector<char> seen(g.num_nodes(), 0);
  std::vector<NodeId> stack{ancestor};
  seen[ancestor] = 1;
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    for (const HalfEdge& out : g.successors(cur)) {
      if (out.node == descendant) return true;
      if (!seen[out.node]) {
        seen[out.node] = 1;
        stack.push_back(out.node);
      }
    }
  }
  return false;
}

DagStats compute_stats(const Graph& g) {
  DagStats s;
  s.nodes = g.num_nodes();
  s.edges = g.num_edges();
  s.threads = g.num_threads();
  s.touches = g.touch_nodes().size();
  s.forks = g.fork_nodes().size();
  s.span = span(g);
  std::unordered_set<BlockId> blocks;
  for (NodeId id = 0; id < g.num_nodes(); ++id)
    if (g.block_of(id) != kNoBlock) blocks.insert(g.block_of(id));
  s.distinct_blocks = blocks.size();
  return s;
}

}  // namespace wsf::core
