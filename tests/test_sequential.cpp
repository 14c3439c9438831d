// Sequential executor tests, including the paper's Lemma 4 and Lemma 11
// order invariants as property tests over random structured DAGs.
#include <gtest/gtest.h>

#include "core/classify.hpp"
#include "graphs/generators.hpp"
#include "graphs/registry.hpp"
#include "sched/sequential.hpp"
#include "sched/simulator.hpp"

namespace wsf {
namespace {

using core::ForkPolicy;
using core::Graph;
using core::NodeId;
using sched::SeqResult;
using sched::SimOptions;

SeqResult run_seq(const Graph& g, ForkPolicy policy) {
  SimOptions opts;
  opts.policy = policy;
  return sched::run_sequential(g, opts);
}

void expect_is_permutation(const Graph& g, const SeqResult& r) {
  ASSERT_EQ(r.order.size(), g.num_nodes());
  std::vector<char> seen(g.num_nodes(), 0);
  for (NodeId v : r.order) {
    ASSERT_LT(v, g.num_nodes());
    EXPECT_FALSE(seen[v]) << "node " << v << " executed twice";
    seen[v] = 1;
  }
  // Dependency order: every node executes after all its predecessors.
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    for (const core::HalfEdge& out : g.successors(v))
      EXPECT_LT(r.position[v], r.position[out.node]);
}

TEST(Sequential, ChainRunsInOrder) {
  const auto gen = graphs::serial_chain(10);
  const auto r = run_seq(gen.graph, ForkPolicy::FutureFirst);
  for (NodeId v = 0; v < 10; ++v) EXPECT_EQ(r.order[v], v);
}

TEST(Sequential, ExecutesEveryNodeOnceRespectingDeps) {
  for (const auto& name : graphs::registry_names()) {
    graphs::RegistryParams p;
    p.size = 4;
    p.size2 = 3;
    p.cache_lines = 2;
    const auto gen = graphs::make_named(name, p);
    for (auto policy : {ForkPolicy::FutureFirst, ForkPolicy::ParentFirst}) {
      const auto r = run_seq(gen.graph, policy);
      expect_is_permutation(gen.graph, r);
    }
  }
}

TEST(Sequential, FutureFirstDivesIntoFutureThread) {
  const auto gen = graphs::fig5b(2);
  const auto r = run_seq(gen.graph, ForkPolicy::FutureFirst);
  const Graph& g = gen.graph;
  const NodeId fork = g.fork_nodes()[0];
  EXPECT_EQ(r.position[g.fork_left_child(fork)], r.position[fork] + 1);
}

TEST(Sequential, ParentFirstContinuesParent) {
  const auto gen = graphs::fig5b(2);
  const auto r = run_seq(gen.graph, ForkPolicy::ParentFirst);
  const Graph& g = gen.graph;
  const NodeId fork = g.fork_nodes()[0];
  EXPECT_EQ(r.position[g.fork_right_child(fork)], r.position[fork] + 1);
}

TEST(Sequential, MatchesSimulatorAtPOne) {
  // Independent implementations must agree exactly — the cross-check for
  // both engines.
  for (const auto& name : graphs::registry_names()) {
    graphs::RegistryParams p;
    p.size = 5;
    p.size2 = 3;
    p.cache_lines = 3;
    const auto gen = graphs::make_named(name, p);
    for (auto policy : {ForkPolicy::FutureFirst, ForkPolicy::ParentFirst}) {
      SimOptions opts;
      opts.policy = policy;
      opts.procs = 1;
      opts.cache_lines = 3;
      const auto seq = sched::run_sequential(gen.graph, opts);
      const auto par = sched::simulate(gen.graph, opts);
      EXPECT_EQ(seq.order, par.proc_orders[0])
          << name << " under " << to_string(policy);
      EXPECT_EQ(seq.misses, par.total_misses()) << name;
      EXPECT_EQ(par.steals, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Lemma 4: in the sequential future-first execution of a structured
// single-touch computation, (a) every touch's future parent executes before
// its local parent, and (b) the right child of the touch's corresponding
// fork immediately follows the touch's future parent (the future thread's
// last node).
// ---------------------------------------------------------------------------

void expect_lemma4(const Graph& g, const SeqResult& r) {
  for (NodeId touch : g.touch_nodes()) {
    const NodeId fparent = g.future_parent_of(touch);
    const NodeId lparent = g.local_parent_of(touch);
    EXPECT_LT(r.position[fparent], r.position[lparent])
        << "Lemma 4(a) violated at touch " << touch;
    const NodeId fork = g.corresponding_fork_of(touch);
    if (fork == core::kInvalidNode) continue;  // future thread is main
    // (b) holds when the future parent is the future thread's last node
    // (always, in single-touch computations).
    const NodeId right = g.fork_right_child(fork);
    EXPECT_EQ(r.position[right], r.position[fparent] + 1)
        << "Lemma 4(b) violated at touch " << touch;
  }
}

class Lemma4Property : public ::testing::TestWithParam<int> {};

TEST_P(Lemma4Property, HoldsOnRandomSingleTouchDags) {
  graphs::RandomDagParams p;
  p.seed = static_cast<std::uint64_t>(GetParam());
  p.target_nodes = 400;
  const auto gen = graphs::random_single_touch(p);
  ASSERT_TRUE(core::classify(gen.graph).single_touch);
  const auto r = run_seq(gen.graph, ForkPolicy::FutureFirst);
  expect_lemma4(gen.graph, r);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma4Property, ::testing::Range(1, 41));

TEST(Lemma4, HoldsOnPaperConstructions) {
  for (const char* name : {"fig4", "fig5a", "fig5b", "fig6a", "fig6b",
                           "fig7a", "forkjoin", "fib", "future-chain"}) {
    graphs::RegistryParams p;
    p.size = 4;
    p.size2 = 3;
    const auto gen = graphs::make_named(name, p);
    const auto r = run_seq(gen.graph, ForkPolicy::FutureFirst);
    expect_lemma4(gen.graph, r);
  }
}

// ---------------------------------------------------------------------------
// Lemma 11: local-touch analogue — future parents before local parents, and
// the fork's right child immediately follows the future thread's *last*
// node.
// ---------------------------------------------------------------------------

void expect_lemma11(const Graph& g, const SeqResult& r) {
  for (NodeId touch : g.touch_nodes()) {
    const NodeId fparent = g.future_parent_of(touch);
    const NodeId lparent = g.local_parent_of(touch);
    EXPECT_LT(r.position[fparent], r.position[lparent])
        << "Lemma 11 order violated at touch " << touch;
  }
  for (core::ThreadId t = 1; t < g.num_threads(); ++t) {
    const auto& info = g.thread_info(t);
    const NodeId right = g.fork_right_child(info.fork_node);
    EXPECT_EQ(r.position[right], r.position[info.last_node] + 1)
        << "right child of fork of thread " << t
        << " does not follow the thread's last node";
  }
}

class Lemma11Property : public ::testing::TestWithParam<int> {};

TEST_P(Lemma11Property, HoldsOnRandomLocalTouchDags) {
  graphs::RandomDagParams p;
  p.seed = static_cast<std::uint64_t>(GetParam());
  p.target_nodes = 400;
  const auto gen = graphs::random_local_touch(p);
  ASSERT_TRUE(core::classify(gen.graph).local_touch);
  const auto r = run_seq(gen.graph, ForkPolicy::FutureFirst);
  expect_lemma11(gen.graph, r);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma11Property, ::testing::Range(1, 41));

TEST(Lemma11, HoldsOnPipelines) {
  for (std::uint32_t stages : {1u, 2u, 4u}) {
    for (std::uint32_t items : {1u, 3u, 5u}) {
      const auto gen = graphs::pipeline(stages, items, 0);
      const auto r = run_seq(gen.graph, ForkPolicy::FutureFirst);
      expect_lemma11(gen.graph, r);
    }
  }
}

}  // namespace
}  // namespace wsf
