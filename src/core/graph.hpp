// Computation-DAG representation (Section 2.1 of the paper).
//
// A future-parallel computation is a DAG whose nodes are unit tasks and whose
// edges are one of three kinds:
//   * continuation edges — from one node to the next in the same thread,
//   * future edges       — from a fork node to the first node of the thread
//                          it spawns,
//   * touch edges        — from a node of the future thread (the "future
//                          parent") to the touch node in another thread.
//
// Model conventions enforced here (and checked by Graph::validate):
//   * every node has in/out degree 1 or 2, except the root (in 0), the final
//     node (out 0, and possibly in > 2 when it is a "super final node",
//     Section 6.2),
//   * a fork's two children both have in-degree 1 and are not touches,
//   * a touch has exactly two predecessors: its local parent (continuation
//     edge) and its future parent (touch edge),
//   * every non-main thread's last node has exactly one outgoing edge, a
//     touch edge (the thread's synchronization point, Section 4).
//
// Graphs are normally produced through GraphBuilder (builder.hpp), which
// maintains these invariants during construction.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/ids.hpp"
#include "support/check.hpp"

namespace wsf::core {

enum class EdgeKind : std::uint8_t {
  Continuation = 0,
  Future = 1,
  Touch = 2,
};

/// One endpoint of a directed edge, with the edge's kind.
struct HalfEdge {
  NodeId node = kInvalidNode;
  EdgeKind kind = EdgeKind::Continuation;
};

/// Bookkeeping for one thread of the computation.
struct ThreadInfo {
  NodeId first_node = kInvalidNode;
  NodeId last_node = kInvalidNode;
  /// Thread that spawned this one (kInvalidThread for the main thread).
  ThreadId parent = kInvalidThread;
  /// The fork node at which this thread was spawned (kInvalidNode for main).
  NodeId fork_node = kInvalidNode;
  /// Number of nodes in the thread.
  std::uint32_t length = 0;
};

/// Immutable-after-construction computation DAG with the paper's node/edge
/// vocabulary. Construction happens through GraphBuilder.
///
/// A finished graph is flat: parallel per-node arrays (thread, block, kind
/// flags, fork children, future parent, corresponding fork) and CSR
/// successor/predecessor lists, so every structural query — including the
/// ones the simulator, the sequential executor and the runtime replayer ask
/// once per executed node — is an indexed load.
class Graph {
 public:
  // ---- sizes ----
  std::size_t num_nodes() const { return thread_of_.size(); }
  std::size_t num_threads() const { return threads_.size(); }
  /// Number of directed edges (super-final edges included).
  std::size_t num_edges() const { return succ_.size(); }

  // ---- node access ----
  NodeId root() const { return 0; }
  NodeId final_node() const { return final_; }

  ThreadId thread_of(NodeId id) const { return thread_of_[id]; }
  BlockId block_of(NodeId id) const { return block_of_[id]; }

  /// Out half-edges of a node in insertion order, super-final edges
  /// included.
  std::span<const HalfEdge> successors(NodeId id) const {
    return {succ_.data() + succ_off_[id], succ_off_[id + 1] - succ_off_[id]};
  }
  /// In half-edges of a node in insertion order; the final node's list ends
  /// with its super-final predecessors, in super_final_preds() order.
  std::span<const HalfEdge> predecessors(NodeId id) const {
    return {pred_.data() + pred_off_[id], pred_off_[id + 1] - pred_off_[id]};
  }
  /// Total in-degree including super-final extra predecessors.
  std::size_t in_degree(NodeId id) const {
    return pred_off_[id + 1] - pred_off_[id];
  }
  std::size_t out_degree(NodeId id) const {
    return succ_off_[id + 1] - succ_off_[id];
  }

  // ---- node kind predicates (paper terminology) ----
  /// A fork has two out-edges: a continuation edge (to the parent thread's
  /// next node, its "right child") and a future edge (to the first node of
  /// the spawned thread, its "left child").
  bool is_fork(NodeId id) const { return (flags_[id] & kFork) != 0; }
  /// A touch has an incoming touch edge. (The paper does not distinguish
  /// touch nodes from join nodes; neither do we. Super-final edges do not
  /// make the final node a touch.)
  bool is_touch(NodeId id) const { return (flags_[id] & kTouch) != 0; }
  /// A future parent is a node with an outgoing touch edge.
  bool is_future_parent(NodeId id) const {
    return (flags_[id] & kFutureParent) != 0;
  }

  // The relations below require the node to be of the named kind
  // (checked in debug builds only).
  /// For a fork: the first node of the spawned future thread.
  NodeId fork_left_child(NodeId fork) const {
    WSF_DCHECK(is_fork(fork), "node " << fork << " is not a fork");
    return left_child_[fork];
  }
  /// For a fork: the continuation of the parent thread.
  NodeId fork_right_child(NodeId fork) const {
    WSF_DCHECK(is_fork(fork), "node " << fork << " is not a fork");
    return right_child_[fork];
  }
  /// For a touch: the predecessor reached by the incoming touch edge.
  NodeId future_parent_of(NodeId touch) const {
    WSF_DCHECK(is_touch(touch), "node " << touch << " is not a touch");
    return future_parent_[touch];
  }
  /// For a touch: the predecessor in the same thread (continuation edge).
  /// A touch's first two in-edges are its continuation and touch edges.
  NodeId local_parent_of(NodeId touch) const {
    WSF_DCHECK(is_touch(touch), "node " << touch << " is not a touch");
    const HalfEdge* in = pred_.data() + pred_off_[touch];
    return in[in[0].kind == EdgeKind::Touch ? 1 : 0].node;
  }
  /// For a touch: the thread that computes the touched future, i.e. the
  /// thread of its future parent.
  ThreadId future_thread_of(NodeId touch) const {
    return thread_of_[future_parent_of(touch)];
  }
  /// For a touch: the fork at which its future thread was spawned
  /// ("corresponding fork"). kInvalidNode if the future thread is main.
  NodeId corresponding_fork_of(NodeId touch) const {
    WSF_DCHECK(is_touch(touch), "node " << touch << " is not a touch");
    return corr_fork_[touch];
  }

  // ---- threads ----
  const ThreadInfo& thread_info(ThreadId t) const { return threads_[t]; }
  /// All touch nodes whose future parent lies in thread t ("touches of t"),
  /// in id order.
  std::span<const NodeId> touches_of_thread(ThreadId t) const {
    return {thread_touches_.data() + thread_touch_off_[t],
            thread_touch_off_[t + 1] - thread_touch_off_[t]};
  }

  // ---- enumeration ----
  /// All touch nodes in id order, which is construction order for a built
  /// graph (excludes the final node's super-final in-edges; see
  /// super_final_preds).
  const std::vector<NodeId>& touch_nodes() const { return touch_nodes_; }
  /// All fork nodes in id order.
  const std::vector<NodeId>& fork_nodes() const { return fork_nodes_; }

  // ---- super final node (Section 6.2) ----
  bool has_super_final() const { return !super_final_preds_.empty(); }
  /// Extra predecessors of the final node beyond its two slots (each is the
  /// last node of some thread, connected by a touch edge).
  const std::vector<NodeId>& super_final_preds() const {
    return super_final_preds_;
  }

  // ---- roles ----
  /// Generators tag nodes with string roles ("w", "u[3]", ...) so schedule
  /// controllers can script the executions in the paper's proofs by role.
  void set_role(NodeId id, const std::string& role);
  /// Node carrying the role, or kInvalidNode.
  NodeId node_by_role(const std::string& role) const;
  /// Role of a node, or empty string.
  const std::string& role_of(NodeId id) const;
  /// All role assignments (role → node), for controllers that organize
  /// scripted schedules around role families.
  const std::unordered_map<std::string, NodeId>& all_roles() const {
    return role_to_node_;
  }

  /// Structural validation of all the model conventions listed at the top of
  /// this header. Throws wsf::CheckError with a description on violation.
  void validate() const;

 private:
  friend class GraphBuilder;
  friend Graph relabeled_graph(const Graph& g,
                               const std::vector<NodeId>& new_id_of);

  /// Edge slots of one node while the graph is under construction (at most
  /// two in, two out, in insertion order); finalize() flattens them.
  struct Slots {
    std::array<HalfEdge, 2> out{};
    std::array<HalfEdge, 2> in{};
    std::uint8_t out_count = 0;
    std::uint8_t in_count = 0;
  };

  NodeId add_node(ThreadId thread, BlockId block);
  void add_edge(NodeId from, NodeId to, EdgeKind kind);
  /// Registers an extra predecessor of the final node (super-final edge).
  void add_super_final_edge(NodeId from);
  /// Builds the flat arrays, the fork and touch lists and the per-thread
  /// touch index from the construction slots, frees the slots and validates
  /// the result. Called once the structure is final (builder finish /
  /// relabel).
  void finalize();

  static constexpr std::uint8_t kFork = 1;
  static constexpr std::uint8_t kTouch = 2;
  static constexpr std::uint8_t kFutureParent = 4;

  std::vector<Slots> slots_;  // empty once finalized

  std::vector<ThreadId> thread_of_;
  std::vector<BlockId> block_of_;
  std::vector<std::uint8_t> flags_;
  std::vector<std::uint32_t> succ_off_;
  std::vector<HalfEdge> succ_;
  std::vector<std::uint32_t> pred_off_;
  std::vector<HalfEdge> pred_;
  // Per-node relations, kInvalidNode where the node is not of the kind.
  std::vector<NodeId> left_child_;
  std::vector<NodeId> right_child_;
  std::vector<NodeId> future_parent_;
  std::vector<NodeId> corr_fork_;

  std::vector<ThreadInfo> threads_;
  std::vector<NodeId> touch_nodes_;
  std::vector<NodeId> fork_nodes_;
  std::vector<NodeId> super_final_preds_;
  NodeId final_ = kInvalidNode;

  // CSR over touches_of_thread: thread t's touches are
  // thread_touches_[thread_touch_off_[t] .. thread_touch_off_[t+1]).
  std::vector<std::uint32_t> thread_touch_off_;
  std::vector<NodeId> thread_touches_;

  std::unordered_map<std::string, NodeId> role_to_node_;
  std::unordered_map<NodeId, std::string> node_to_role_;
};

/// A structurally identical copy of `g` whose node ids are permuted:
/// old node v becomes new node new_id_of[v]. The permutation must keep the
/// root at id 0 (Graph::root() is id 0 by convention). Threads keep their
/// ids; every NodeId-bearing table (edges, thread bounds, touch/fork lists,
/// roles, super-final predecessors) is remapped, and enumeration lists are
/// re-sorted into the new construction (id) order. The relabeled graph
/// passes validate() and represents the same computation — only the memory
/// layout order of nodes changes, which is exactly the cache variable the
/// layout experiments sweep.
Graph relabeled_graph(const Graph& g, const std::vector<NodeId>& new_id_of);

}  // namespace wsf::core
