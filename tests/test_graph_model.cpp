// Builder and Graph model invariants (Section 2.1 conventions).
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/builder.hpp"
#include "core/dot.hpp"
#include "core/graph.hpp"
#include "core/layout.hpp"
#include "graphs/registry.hpp"
#include "sched/sequential.hpp"
#include "support/check.hpp"

namespace wsf::core {
namespace {

TEST(Builder, MinimalGraphIsRootOnly) {
  GraphBuilder b;
  const Graph g = b.finish();
  EXPECT_EQ(g.num_nodes(), 1u);
  EXPECT_EQ(g.root(), g.final_node());
  EXPECT_EQ(g.num_threads(), 1u);
}

TEST(Builder, StepExtendsMainThread) {
  GraphBuilder b;
  const NodeId a = b.step(b.main_thread());
  const NodeId c = b.step(b.main_thread());
  const Graph g = b.finish();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.final_node(), c);
  EXPECT_EQ(g.successors(a)[0].node, c);
  EXPECT_EQ(g.successors(a)[0].kind, EdgeKind::Continuation);
}

TEST(Builder, ForkCreatesFutureThread) {
  GraphBuilder b;
  const auto fk = b.fork(b.main_thread());
  b.step(fk.future_thread);
  b.step(b.main_thread());
  b.touch(b.main_thread(), fk.future_thread);
  const Graph g = b.finish();
  EXPECT_EQ(g.num_threads(), 2u);
  EXPECT_TRUE(g.is_fork(fk.fork_node));
  EXPECT_EQ(g.fork_left_child(fk.fork_node), fk.future_first);
  EXPECT_EQ(g.thread_of(fk.future_first), fk.future_thread);
  EXPECT_EQ(g.thread_info(fk.future_thread).fork_node, fk.fork_node);
  EXPECT_EQ(g.thread_info(fk.future_thread).parent, b.main_thread());
}

TEST(Builder, TouchRecordsBothParents) {
  GraphBuilder b;
  const auto fk = b.fork(b.main_thread());
  const NodeId body = b.step(fk.future_thread);
  const NodeId local = b.step(b.main_thread());
  const NodeId touch = b.touch(b.main_thread(), fk.future_thread);
  const Graph g = b.finish();
  EXPECT_TRUE(g.is_touch(touch));
  EXPECT_EQ(g.future_parent_of(touch), body);
  EXPECT_EQ(g.local_parent_of(touch), local);
  EXPECT_EQ(g.future_thread_of(touch), fk.future_thread);
  EXPECT_EQ(g.corresponding_fork_of(touch), fk.fork_node);
  EXPECT_TRUE(g.is_future_parent(body));
}

TEST(Builder, RejectsTouchAsForkChild) {
  GraphBuilder b;
  const auto f1 = b.fork(b.main_thread());
  b.step(f1.future_thread);
  // The main thread's tail is the fork node; touching now would make the
  // fork's right child a touch, which the paper's convention forbids.
  EXPECT_THROW(b.touch(b.main_thread(), f1.future_thread), CheckError);
}

TEST(Builder, RejectsSelfTouch) {
  GraphBuilder b;
  b.step(b.main_thread());
  EXPECT_THROW(b.touch(b.main_thread(), b.main_thread()), CheckError);
}

TEST(Builder, RejectsUnfinishedFutureThread) {
  GraphBuilder b;
  const auto fk = b.fork(b.main_thread());
  b.step(fk.future_thread);
  b.step(b.main_thread());
  // The future thread never touches anything: finish() must fail because
  // its last node has no outgoing touch edge.
  EXPECT_THROW(b.finish(), CheckError);
}

TEST(Builder, SuperFinalCollectsSideEffectThreads) {
  GraphBuilder b;
  const auto fk = b.fork(b.main_thread());
  b.step(fk.future_thread);
  b.step(b.main_thread());
  const Graph g = b.finish_super();
  EXPECT_TRUE(g.has_super_final());
  ASSERT_EQ(g.super_final_preds().size(), 1u);
  EXPECT_EQ(g.thread_of(g.super_final_preds()[0]), fk.future_thread);
  EXPECT_GE(g.in_degree(g.final_node()), 2u);
}

TEST(Builder, SuperFinalTouchAllAddsSecondTouch) {
  GraphBuilder b;
  const auto fk = b.fork(b.main_thread());
  b.step(fk.future_thread);
  b.step(b.main_thread());
  b.touch(b.main_thread(), fk.future_thread);
  const Graph g = b.finish_super(/*touch_all=*/true);
  EXPECT_TRUE(g.has_super_final());
  EXPECT_EQ(g.super_final_preds().size(), 1u);  // the already-touched thread
}

TEST(Builder, ChainAppendsBlocks) {
  GraphBuilder b;
  const NodeId last = b.chain(b.main_thread(), {7, 8, 9});
  const Graph g = b.finish();
  EXPECT_EQ(g.block_of(last), 9);
  EXPECT_EQ(g.num_nodes(), 4u);
}

TEST(Builder, FinishTwiceRejected) {
  GraphBuilder b;
  b.step(b.main_thread());
  (void)b.finish();
  EXPECT_THROW(b.finish(), CheckError);
}

TEST(Graph, RolesRoundTrip) {
  GraphBuilder b;
  const NodeId n = b.step(b.main_thread(), kNoBlock, "hello");
  const Graph g = b.finish();
  EXPECT_EQ(g.node_by_role("hello"), n);
  EXPECT_EQ(g.role_of(n), "hello");
  EXPECT_EQ(g.node_by_role("nope"), kInvalidNode);
  EXPECT_EQ(g.role_of(g.root()), "");
  EXPECT_EQ(g.all_roles().size(), 1u);
}

TEST(Graph, DuplicateRoleRejected) {
  GraphBuilder b;
  b.step(b.main_thread(), kNoBlock, "dup");
  EXPECT_THROW(b.step(b.main_thread(), kNoBlock, "dup"), CheckError);
}

TEST(Graph, EdgeAndDegreeAccounting) {
  GraphBuilder b;
  const auto fk = b.fork(b.main_thread());
  b.step(fk.future_thread);
  b.step(b.main_thread());
  const NodeId touch = b.touch(b.main_thread(), fk.future_thread);
  const Graph g = b.finish();
  // nodes: root, fork, future-first, future-body, right-child, touch.
  EXPECT_EQ(g.num_nodes(), 6u);
  EXPECT_EQ(g.in_degree(touch), 2u);
  EXPECT_EQ(g.out_degree(g.final_node()), 0u);
  EXPECT_EQ(g.touch_nodes().size(), 1u);
  EXPECT_EQ(g.fork_nodes().size(), 1u);
  EXPECT_EQ(g.touches_of_thread(fk.future_thread).size(), 1u);
}

// ---- the flat form every consumer reads ----

/// A side-effect future plus a touched future that touch_all also ties to
/// the super final node: the final node's predecessor list then holds two
/// super-final edges after its continuation in-edge.
Graph super_final_graph() {
  GraphBuilder b;
  const auto touched = b.fork(b.main_thread());
  b.step(touched.future_thread);
  b.step(b.main_thread());
  b.touch(b.main_thread(), touched.future_thread);
  const auto side = b.fork(b.main_thread());
  b.step(side.future_thread);
  b.step(b.main_thread());
  return b.finish_super(/*touch_all=*/true);
}

/// Predecessor lists mirror successor lists edge for edge (kinds
/// included), degrees are list sizes, and every kind flag and precomputed
/// relation agrees with the edge kinds it is read from.
void expect_flat_form_consistent(const Graph& g, const std::string& at) {
  std::map<std::tuple<NodeId, NodeId, EdgeKind>, int> balance;
  std::size_t edges = 0;
  std::size_t touches = 0;
  std::size_t forks = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::span<const HalfEdge> succ = g.successors(v);
    std::span<const HalfEdge> pred = g.predecessors(v);
    EXPECT_EQ(g.out_degree(v), succ.size()) << at << " node " << v;
    EXPECT_EQ(g.in_degree(v), pred.size()) << at << " node " << v;
    edges += succ.size();
    for (const HalfEdge& e : succ) ++balance[{v, e.node, e.kind}];
    for (const HalfEdge& e : pred) --balance[{e.node, v, e.kind}];

    if (v == g.final_node()) {
      // The final node's list ends with its super-final predecessors, in
      // super_final_preds() order; they do not make it a touch.
      const std::vector<NodeId>& extra = g.super_final_preds();
      ASSERT_GE(pred.size(), extra.size()) << at;
      const std::span<const HalfEdge> tail = pred.last(extra.size());
      for (std::size_t i = 0; i < extra.size(); ++i) {
        EXPECT_EQ(tail[i].node, extra[i]) << at;
        EXPECT_EQ(tail[i].kind, EdgeKind::Touch) << at;
      }
      pred = pred.first(pred.size() - extra.size());
    }

    NodeId future_child = kInvalidNode;
    NodeId cont_child = kInvalidNode;
    bool touch_out = false;
    for (const HalfEdge& e : succ) {
      if (e.kind == EdgeKind::Future) future_child = e.node;
      if (e.kind == EdgeKind::Continuation) cont_child = e.node;
      touch_out |= e.kind == EdgeKind::Touch;
    }
    const bool fork = succ.size() == 2 && future_child != kInvalidNode &&
                      cont_child != kInvalidNode;
    EXPECT_EQ(g.is_fork(v), fork) << at << " node " << v;
    EXPECT_EQ(g.is_future_parent(v), touch_out) << at << " node " << v;
    if (fork) {
      ++forks;
      EXPECT_EQ(g.fork_left_child(v), future_child) << at << " node " << v;
      EXPECT_EQ(g.fork_right_child(v), cont_child) << at << " node " << v;
    }

    NodeId future_parent = kInvalidNode;
    NodeId local_parent = kInvalidNode;
    for (const HalfEdge& e : pred) {
      if (e.kind == EdgeKind::Touch)
        future_parent = e.node;
      else
        local_parent = e.node;
    }
    EXPECT_EQ(g.is_touch(v), future_parent != kInvalidNode)
        << at << " node " << v;
    if (future_parent != kInvalidNode) {
      ++touches;
      EXPECT_EQ(g.future_parent_of(v), future_parent) << at << " node " << v;
      EXPECT_EQ(g.local_parent_of(v), local_parent) << at << " node " << v;
      EXPECT_EQ(g.corresponding_fork_of(v),
                g.thread_info(g.thread_of(future_parent)).fork_node)
          << at << " node " << v;
    }
  }
  for (const auto& [edge, count] : balance)
    EXPECT_EQ(count, 0) << at << " edge " << std::get<0>(edge) << "->"
                        << std::get<1>(edge);
  EXPECT_EQ(g.num_edges(), edges) << at;
  EXPECT_EQ(g.touch_nodes().size(), touches) << at;
  EXPECT_EQ(g.fork_nodes().size(), forks) << at;
  for (const NodeId t : g.touch_nodes()) EXPECT_TRUE(g.is_touch(t)) << at;
  for (const NodeId f : g.fork_nodes()) EXPECT_TRUE(g.is_fork(f)) << at;
}

/// Relabeling keeps each node's edge order: successors and in-edges map
/// slot for slot, and the final node's super-final predecessors follow in
/// (sorted) super_final_preds() order.
void expect_order_preserved(const Graph& g, const Graph& g2,
                            const NodeOrder& order, const std::string& at) {
  const auto map = [&](NodeId v) { return order.new_id_of[v]; };
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::span<const HalfEdge> succ = g.successors(v);
    const std::span<const HalfEdge> succ2 = g2.successors(map(v));
    ASSERT_EQ(succ2.size(), succ.size()) << at;
    for (std::size_t i = 0; i < succ.size(); ++i) {
      EXPECT_EQ(succ2[i].node, map(succ[i].node)) << at << " node " << v;
      EXPECT_EQ(succ2[i].kind, succ[i].kind) << at << " node " << v;
    }
    const std::size_t extra =
        v == g.final_node() ? g.super_final_preds().size() : 0;
    const std::span<const HalfEdge> pred = g.predecessors(v);
    const std::span<const HalfEdge> pred2 = g2.predecessors(map(v));
    ASSERT_EQ(pred2.size(), pred.size()) << at;
    for (std::size_t i = 0; i + extra < pred.size(); ++i) {
      EXPECT_EQ(pred2[i].node, map(pred[i].node)) << at << " node " << v;
      EXPECT_EQ(pred2[i].kind, pred[i].kind) << at << " node " << v;
    }
  }
}

TEST(FlatGraph, EveryFamilySuperFinalAndRelabelingIsConsistent) {
  std::vector<std::pair<std::string, Graph>> graphs;
  for (const std::string& family : graphs::registry_names())
    graphs.emplace_back(
        family,
        graphs::make_named(family, {.size = 5, .size2 = 3, .cache_lines = 4})
            .graph);
  graphs.emplace_back("finish_super(true)", super_final_graph());
  ASSERT_EQ(graphs.back().second.super_final_preds().size(), 2u);

  for (const auto& [name, g] : graphs) {
    expect_flat_form_consistent(g, name);
    for (const NodeOrderKind kind :
         {NodeOrderKind::Construction, NodeOrderKind::Dfs,
          NodeOrderKind::Sequential, NodeOrderKind::Random}) {
      const std::string at = name + " @" + to_string(kind);
      const NodeOrder order = sched::make_node_order(g, kind, 3);
      const Graph g2 = relabeled_graph(g, order.new_id_of);
      expect_flat_form_consistent(g2, at);
      expect_order_preserved(g, g2, order, at);
    }
  }
}

TEST(FlatGraph, RelabelingRejectsNonPermutations) {
  const Graph g = super_final_graph();
  std::vector<NodeId> ids(g.num_nodes());
  for (NodeId v = 0; v < ids.size(); ++v) ids[v] = v;
  std::vector<NodeId> repeated = ids;
  repeated.back() = repeated[1];
  EXPECT_THROW(relabeled_graph(g, repeated), CheckError);
  std::vector<NodeId> out_of_range = ids;
  out_of_range.back() = static_cast<NodeId>(ids.size());
  EXPECT_THROW(relabeled_graph(g, out_of_range), CheckError);
  std::vector<NodeId> moved_root = ids;
  std::swap(moved_root[0], moved_root[1]);
  EXPECT_THROW(relabeled_graph(g, moved_root), CheckError);
}

TEST(Dot, RendersEdgesAndRoles) {
  GraphBuilder b;
  const auto fk = b.fork(b.main_thread(), kNoBlock, "the-fork");
  b.step(fk.future_thread, 3);
  b.step(b.main_thread());
  b.touch(b.main_thread(), fk.future_thread);
  const Graph g = b.finish();
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("the-fork"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // future edge
  EXPECT_NE(dot.find("style=dotted"), std::string::npos);  // touch edge
  EXPECT_NE(dot.find("m3"), std::string::npos);            // block label
}

}  // namespace
}  // namespace wsf::core
