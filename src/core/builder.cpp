#include "core/builder.hpp"

#include "support/check.hpp"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace wsf::core {

GraphBuilder::GraphBuilder() {
  // Main thread with its root node.
  g_.threads_.push_back(ThreadInfo{});
  const NodeId root = g_.add_node(/*thread=*/0, kNoBlock);
  ThreadInfo& main = g_.threads_[0];
  main.first_node = root;
  main.last_node = root;
  main.length = 1;
  tails_.push_back(root);
}

NodeId GraphBuilder::tail(ThreadId t) const {
  WSF_REQUIRE(t < tails_.size(), "unknown thread " << t);
  return tails_[t];
}

void GraphBuilder::require_open(ThreadId t) const {
  WSF_REQUIRE(!finished_, "builder already finished");
  WSF_REQUIRE(t < tails_.size(), "unknown thread " << t);
}

NodeId GraphBuilder::append(ThreadId t, BlockId block, EdgeKind in_kind,
                            NodeId from) {
  const NodeId id = g_.add_node(t, block);
  g_.add_edge(from, id, in_kind);
  ThreadInfo& ti = g_.threads_[t];
  if (ti.first_node == kInvalidNode) ti.first_node = id;
  ti.last_node = id;
  ti.length += 1;
  tails_[t] = id;
  return id;
}

NodeId GraphBuilder::step(ThreadId t, BlockId block, const std::string& role) {
  require_open(t);
  const NodeId id = append(t, block, EdgeKind::Continuation, tails_[t]);
  if (!role.empty()) g_.set_role(id, role);
  return id;
}

NodeId GraphBuilder::chain(ThreadId t, const std::vector<BlockId>& blocks) {
  require_open(t);
  WSF_REQUIRE(!blocks.empty(), "chain needs at least one block");
  NodeId last = kInvalidNode;
  for (BlockId b : blocks) last = step(t, b);
  return last;
}

GraphBuilder::Fork GraphBuilder::fork(ThreadId t, BlockId fork_block,
                                      const std::string& fork_role,
                                      BlockId future_first_block,
                                      const std::string& future_first_role) {
  require_open(t);
  Fork result;
  result.fork_node = step(t, fork_block);
  if (!fork_role.empty()) g_.set_role(result.fork_node, fork_role);

  // Spawn the future thread with its first node (the fork's left child).
  result.future_thread = static_cast<ThreadId>(g_.threads_.size());
  ThreadInfo ti;
  ti.parent = t;
  ti.fork_node = result.fork_node;
  g_.threads_.push_back(ti);
  tails_.push_back(kInvalidNode);
  const NodeId first = g_.add_node(result.future_thread, future_first_block);
  g_.add_edge(result.fork_node, first, EdgeKind::Future);
  ThreadInfo& stored = g_.threads_[result.future_thread];
  stored.first_node = first;
  stored.last_node = first;
  stored.length = 1;
  tails_[result.future_thread] = first;
  result.future_first = first;
  if (!future_first_role.empty()) g_.set_role(first, future_first_role);
  return result;
}

NodeId GraphBuilder::touch(ThreadId consumer, ThreadId producer, BlockId block,
                           const std::string& role) {
  require_open(consumer);
  WSF_REQUIRE(producer < tails_.size(), "unknown producer thread");
  return touch_node(consumer, tails_[producer], block, role);
}

NodeId GraphBuilder::touch_node(ThreadId consumer, NodeId future_parent,
                                BlockId block, const std::string& role) {
  require_open(consumer);
  WSF_REQUIRE(future_parent < g_.num_nodes(), "unknown future parent node");
  const NodeId local_parent = tails_[consumer];
  // A fork's right child cannot be a touch (paper convention). At build
  // time the fork may not have its continuation edge yet, so detect forks
  // by their outgoing future edge.
  bool local_parent_is_fork = false;
  {
    const Graph::Slots& lp = g_.slots_[local_parent];
    for (std::uint8_t i = 0; i < lp.out_count; ++i)
      if (lp.out[i].kind == EdgeKind::Future) local_parent_is_fork = true;
  }
  WSF_REQUIRE(!local_parent_is_fork,
              "a fork's right child cannot be a touch (paper convention); "
              "insert a step() after fork "
                  << local_parent);
  WSF_REQUIRE(g_.thread_of(future_parent) != consumer,
              "a thread cannot touch its own future parent");
  const NodeId id = append(consumer, block, EdgeKind::Continuation,
                           local_parent);
  g_.add_edge(future_parent, id, EdgeKind::Touch);
  if (!role.empty()) g_.set_role(id, role);
  return id;
}

void GraphBuilder::set_role(ThreadId t, const std::string& role) {
  require_open(t);
  g_.set_role(tails_[t], role);
}

Graph GraphBuilder::finish() {
  WSF_REQUIRE(!finished_, "builder already finished");
  finished_ = true;
  g_.final_ = tails_[0];
  g_.finalize();
  return std::move(g_);
}

Graph GraphBuilder::finish_super(bool touch_all) {
  WSF_REQUIRE(!finished_, "builder already finished");
  // Fresh final node so the super edges target a dedicated sink; the main
  // thread's previous tail connects to it by a continuation edge.
  step(/*main=*/0);
  finished_ = true;
  g_.final_ = tails_[0];
  for (ThreadId t = 1; t < g_.threads_.size(); ++t) {
    const NodeId last = g_.threads_[t].last_node;
    const Graph::Slots& n = g_.slots_[last];
    bool already_touches = false;
    for (std::uint8_t i = 0; i < n.out_count; ++i)
      if (n.out[i].kind == EdgeKind::Touch) already_touches = true;
    if (!already_touches) {
      // This thread's only synchronization point becomes the super final
      // node (a side-effect future, Definition 13).
      g_.add_super_final_edge(last);
    } else if (touch_all && n.out_count < 2) {
      g_.add_super_final_edge(last);
    }
  }
  g_.finalize();
  return std::move(g_);
}

}  // namespace wsf::core
