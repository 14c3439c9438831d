// Node memory order as an experimental variable.
//
// NodeOrder is a permutation of node ids, making the *physical order* of
// nodes in memory an experimental variable, motivated by the paper's
// cache-locality argument. The paper holds layout fixed; with
// relabeled_graph any graph can be laid out in construction order, DFS
// order, the 1-processor baseline's execution order, or a seeded random
// order, and results map back to original ids through the permutation.
// Scheduling measures (deviations, simulated misses) are invariant under
// relabeling — asserted by tests — while real-machine effects (wall time,
// hardware misses) may not be: that gap is exactly what the layout sweep
// axis measures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/graph.hpp"
#include "core/ids.hpp"

namespace wsf::core {

/// How node ids (= node memory order) are assigned. Construction is the
/// generator's natural order; the others are derived permutations.
enum class NodeOrderKind : std::uint8_t {
  Construction = 0,
  /// Deterministic preorder DFS from the root over out-edges.
  Dfs = 1,
  /// Execution order of the 1-processor baseline under the default policy
  /// (future-first, touch-first) — the order a sequential run walks memory.
  Sequential = 2,
  /// Seeded uniform shuffle (root pinned at id 0).
  Random = 3,
};

const char* to_string(NodeOrderKind k);
/// Parses "construction" | "dfs" | "sequential" | "random". Throws
/// CheckError on anything else.
NodeOrderKind node_order_from_string(const std::string& s);

/// A node permutation with both directions, so results computed on the
/// relabeled graph can be mapped back to original ids.
struct NodeOrder {
  NodeOrderKind kind = NodeOrderKind::Construction;
  /// new_id_of[old_id] = new_id.
  std::vector<NodeId> new_id_of;
  /// old_id_of[new_id] = old_id (the inverse permutation).
  std::vector<NodeId> old_id_of;

  /// Maps a node sequence expressed in relabeled ids back to original ids.
  std::vector<NodeId> to_original(std::span<const NodeId> relabeled) const;
};

/// The identity order over g's nodes.
NodeOrder construction_order(const Graph& g);
/// Deterministic preorder DFS from the root (out-edges in storage order).
NodeOrder dfs_order(const Graph& g);
/// Seeded uniform shuffle of ids 1..n-1; the root stays id 0.
NodeOrder random_order(const Graph& g, std::uint64_t seed);
/// Builds a NodeOrder from an execution/visit sequence of old ids (each id
/// exactly once, sequence[0] == root): node visited k-th gets new id k.
/// This is how the sequential baseline order becomes a layout (see
/// sched::make_node_order, which runs the baseline).
NodeOrder order_from_sequence(const Graph& g, NodeOrderKind kind,
                              std::span<const NodeId> sequence);

}  // namespace wsf::core
