// Incremental, thread-centric construction of computation DAGs.
//
// The builder mirrors how a future-parallel program unfolds: each thread has
// a cursor (its current last node); `step` extends a thread by a continuation
// edge, `fork` spawns a future thread, `touch` consumes a future. The builder
// maintains the paper's structural conventions during construction and
// Graph::validate() re-checks them wholesale at finish().
//
// Example — the structured single-touch DAG of Figure 4 (simplified):
//
//   GraphBuilder b;
//   auto main = b.main_thread();
//   auto f1 = b.fork(main);              // u1 spawns future thread
//   b.step(f1.future_thread);            //   future body
//   b.step(main);                        // parent continues (right child)
//   b.touch(main, f1.future_thread);     // v1 touches the future
//   Graph g = b.finish();
#pragma once

#include <string>
#include <vector>

#include "core/graph.hpp"
#include "core/ids.hpp"

namespace wsf::core {

/// Builds a Graph under the model conventions of Section 2.1.
class GraphBuilder {
 public:
  GraphBuilder();

  /// The main thread; its first node (the root) exists from construction.
  ThreadId main_thread() const { return 0; }

  /// Appends a plain node to thread t via a continuation edge and returns it.
  /// `block` is the memory block the node accesses (kNoBlock for none);
  /// `role` optionally tags the node for scripted schedules.
  NodeId step(ThreadId t, BlockId block = kNoBlock,
              const std::string& role = "");

  /// Appends a chain of `count` nodes accessing `blocks[i % blocks.size()]`;
  /// returns the last node. Used for the Y_i / Z_i block-scan chains in the
  /// paper's lower-bound constructions.
  NodeId chain(ThreadId t, const std::vector<BlockId>& blocks);

  struct Fork {
    /// The fork node appended to the parent thread.
    NodeId fork_node = kInvalidNode;
    /// The newly spawned (still empty) future thread. Its first node is
    /// created by the first step()/fork() on it and is the fork's left child.
    ThreadId future_thread = kInvalidThread;
    /// First node of the future thread (the fork's left child), created
    /// eagerly so the future edge exists immediately.
    NodeId future_first = kInvalidNode;
  };

  /// Appends a fork node to thread t and spawns a future thread whose first
  /// node (left child) is created immediately. The *right* child is created
  /// by the next step()/fork()/touch... on t — except touch: the paper's
  /// convention forbids a fork child from being a touch, and the builder
  /// rejects it.
  Fork fork(ThreadId t, BlockId fork_block = kNoBlock,
            const std::string& fork_role = "",
            BlockId future_first_block = kNoBlock,
            const std::string& future_first_role = "");

  /// Appends a touch node to thread `consumer`: its local parent is the
  /// consumer's tail (continuation edge) and its future parent is the
  /// *current tail* of `producer` (touch edge). The producer thread may
  /// continue afterwards (multi-future producers, Definition 3) or stop
  /// there (single-touch, Definition 2).
  NodeId touch(ThreadId consumer, ThreadId producer,
               BlockId block = kNoBlock, const std::string& role = "");

  /// Like touch(), but the future parent is an explicit node (which must
  /// still have a free out-edge slot). Used to build unstructured DAGs such
  /// as Figure 3 where a touch edge comes from deep inside another thread.
  NodeId touch_node(ThreadId consumer, NodeId future_parent,
                    BlockId block = kNoBlock, const std::string& role = "");

  /// Tags the current tail of a thread with a role.
  void set_role(ThreadId t, const std::string& role);

  /// Finalizes: the main thread's tail becomes the final node. Every other
  /// thread must already end in a touch edge. Validates and returns the
  /// graph; the builder must not be used afterwards.
  Graph finish();

  /// Finalizes with a super final node (Section 6.2): first appends a fresh
  /// final node to the main thread, then adds a touch edge from the last
  /// node of every thread that does not already end in a touch edge (their
  /// only touch becomes the super final node; side-effect futures). When
  /// `touch_all` is true, threads already touched elsewhere also get a
  /// super-final edge if their last node has a free out-slot (Definition 13
  /// allows at most two touches: one regular + the super final node).
  Graph finish_super(bool touch_all = false);

 private:
  NodeId append(ThreadId t, BlockId block, EdgeKind in_kind, NodeId from);
  void require_open(ThreadId t) const;

  Graph g_;
  bool finished_ = false;
  /// Per-thread cursor; kInvalidNode once... threads always have ≥1 node.
  std::vector<NodeId> tails_;
};

}  // namespace wsf::core
