// Graph traversals and global DAG measures (work, span, reachability).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/graph.hpp"
#include "core/ids.hpp"

namespace wsf::core {

/// Kahn topological order over all nodes. The returned order respects every
/// edge kind (continuation, future, touch, super-final). If the graph has a
/// cycle, the order covers fewer nodes than num_nodes().
std::vector<NodeId> topological_order(const Graph& g);

/// For every node, the length (in nodes) of the longest directed path from
/// the root ending at that node; dist[root] == 1.
std::vector<std::uint32_t> longest_path_from_root(const Graph& g);

/// The computation span T_inf: number of nodes on a critical path. The paper
/// measures path "length"; with unit-time nodes, counting nodes equals
/// execution time of the critical path, which is the quantity the bounds use.
std::uint32_t span(const Graph& g);

/// Work T_1 = total number of nodes (each node is one unit task).
inline std::size_t work(const Graph& g) { return g.num_nodes(); }

/// Set of nodes reachable from `from` by directed edges, including `from`
/// itself, as a dense flag vector indexed by NodeId.
std::vector<char> reachable_from(const Graph& g, NodeId from);

/// True iff `descendant` is reachable from `ancestor` (a node is its own
/// descendant for ancestor == descendant; the paper's "descendant of v"
/// means strictly after v, so callers pass the child they mean).
bool is_descendant(const Graph& g, NodeId ancestor, NodeId descendant);

/// Aggregate measures used throughout the sweeps and tests.
struct DagStats {
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::size_t threads = 0;
  /// Number of touch nodes t (super-final in-edges are not counted as
  /// touches; the super final node is "not a real touch", Section 4).
  std::size_t touches = 0;
  std::size_t forks = 0;
  std::uint32_t span = 0;
  /// Number of distinct memory blocks referenced by nodes.
  std::size_t distinct_blocks = 0;
};

DagStats compute_stats(const Graph& g);

}  // namespace wsf::core
