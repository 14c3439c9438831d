#include <gtest/gtest.h>

#include "core/builder.hpp"
#include "core/traversal.hpp"
#include "graphs/generators.hpp"

namespace wsf::core {
namespace {

Graph diamond() {
  // root → fork → (future: a) / (cont: b) → touch
  GraphBuilder b;
  const auto fk = b.fork(b.main_thread());
  b.step(fk.future_thread);
  b.step(b.main_thread());
  b.touch(b.main_thread(), fk.future_thread);
  return b.finish();
}

TEST(Traversal, TopoCoversAllNodesAndRespectsEdges) {
  const Graph g = diamond();
  const auto topo = topological_order(g);
  ASSERT_EQ(topo.size(), g.num_nodes());
  std::vector<std::size_t> pos(g.num_nodes());
  for (std::size_t i = 0; i < topo.size(); ++i) pos[topo[i]] = i;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    for (const HalfEdge& out : g.successors(v))
      EXPECT_LT(pos[v], pos[out.node]);
}

TEST(Traversal, SpanOfChainIsLength) {
  const auto gen = graphs::serial_chain(17);
  EXPECT_EQ(span(gen.graph), 17u);
}

TEST(Traversal, SpanOfDiamond) {
  // root, fork, future-first node, future body, touch → 5 nodes.
  EXPECT_EQ(span(diamond()), 5u);
}

TEST(Traversal, ForkJoinTreeSpanGrowsLinearlyInDepth) {
  const auto d2 = graphs::binary_forkjoin_tree(2, 1);
  const auto d4 = graphs::binary_forkjoin_tree(4, 1);
  EXPECT_GT(span(d4.graph), span(d2.graph));
  // Work doubles per level.
  EXPECT_GT(d4.graph.num_nodes(), 3 * d2.graph.num_nodes());
}

TEST(Traversal, ReachabilityAndDescendants) {
  const Graph g = diamond();
  const NodeId fork = g.fork_nodes()[0];
  const NodeId touch = g.touch_nodes()[0];
  EXPECT_TRUE(is_descendant(g, fork, touch));
  EXPECT_FALSE(is_descendant(g, touch, fork));
  EXPECT_TRUE(is_descendant(g, fork, fork));
  const auto reach = reachable_from(g, fork);
  EXPECT_TRUE(reach[g.fork_left_child(fork)]);
  EXPECT_TRUE(reach[g.fork_right_child(fork)]);
  EXPECT_FALSE(reach[g.root()]);
}

TEST(Traversal, StatsCountEverything) {
  const auto gen = graphs::future_chain(4, 1, 3);
  const auto s = compute_stats(gen.graph);
  EXPECT_EQ(s.nodes, gen.graph.num_nodes());
  EXPECT_EQ(s.threads, gen.graph.num_threads());
  EXPECT_EQ(s.forks, gen.graph.fork_nodes().size());
  EXPECT_EQ(s.touches, gen.graph.touch_nodes().size());
  EXPECT_EQ(s.distinct_blocks, 4u);  // m1..m3 + poison m4
  EXPECT_GT(s.span, 0u);
}

TEST(Traversal, LongestPathFromRootMonotone) {
  const Graph g = diamond();
  const auto dist = longest_path_from_root(g);
  EXPECT_EQ(dist[g.root()], 1u);
  EXPECT_EQ(dist[g.final_node()], span(g));
}

}  // namespace
}  // namespace wsf::core
