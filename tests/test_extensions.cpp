// Tests for the extension features: deviation chains (Theorem 8's proof
// object) and the structure ablation generator (Section 7).
#include <gtest/gtest.h>

#include "core/classify.hpp"
#include "core/deviation.hpp"
#include "core/traversal.hpp"
#include "graphs/fig6_controller.hpp"
#include "graphs/generators.hpp"
#include "sched/harness.hpp"

namespace wsf {
namespace {

using core::ForkPolicy;
using sched::SimOptions;

TEST(DeviationChains, Fig6aChainIsExactlyTheTouchDeviations) {
  // One scripted steal roots one chain that walks the passing chain's m
  // touches x_1 … x_m, and the chain accounts for every touch deviation.
  // (On random DAGs chains overlap, so their summed lengths exceed the
  // touch deviations.)
  for (const std::uint32_t m : {8u, 16u, 32u, 64u}) {
    auto gen = graphs::fig6a(m, 0);
    SimOptions opts;
    opts.procs = 2;
    opts.policy = ForkPolicy::FutureFirst;
    graphs::Fig6Controller ctrl;
    const auto r = sched::run_experiment(gen.graph, opts, &ctrl);
    const auto chains =
        core::deviation_chains(gen.graph, r.deviations, r.par.stolen_nodes);
    ASSERT_EQ(r.par.steals, 1u) << "m=" << m;
    ASSERT_EQ(chains.size(), 1u) << "m=" << m;
    EXPECT_EQ(chains[0].touches.size(), m);
    EXPECT_EQ(r.deviations.touch_deviations, m);
    for (core::NodeId x : chains[0].touches)
      EXPECT_TRUE(r.deviations.is_deviation[x]);
  }
}

TEST(DeviationChains, NoStealNoChains) {
  auto gen = graphs::fig6a(8, 0);
  SimOptions opts;
  opts.procs = 1;
  const auto r = sched::run_experiment(gen.graph, opts);
  const auto chains =
      core::deviation_chains(gen.graph, r.deviations, r.par.stolen_nodes);
  EXPECT_TRUE(chains.empty());
}

TEST(DeviationChains, BoundedBySpanOnRandomDags) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    graphs::RandomDagParams gp;
    gp.seed = seed;
    gp.target_nodes = 800;
    const auto gen = graphs::random_single_touch(gp);
    const auto span = core::span(gen.graph);
    SimOptions opts;
    opts.procs = 4;
    opts.seed = seed;
    opts.stall_prob = 0.3;
    opts.policy = ForkPolicy::FutureFirst;
    const auto r = sched::run_experiment(gen.graph, opts);
    const auto chains =
        core::deviation_chains(gen.graph, r.deviations, r.par.stolen_nodes);
    EXPECT_EQ(chains.size(), r.par.steals) << "seed " << seed;
    for (const auto& c : chains)
      EXPECT_LE(c.touches.size(), span) << "seed " << seed;
  }
}

TEST(AblationMix, FullyStructuredIsSingleTouch) {
  const auto gen = graphs::unstructured_mix(12, 0.0, 8, 1);
  const auto rep = core::classify(gen.graph);
  EXPECT_TRUE(rep.structured);
  EXPECT_TRUE(rep.single_touch);
}

TEST(AblationMix, AnyEarlyConsumerBreaksStructure) {
  const auto gen = graphs::unstructured_mix(12, 1.0, 8, 1);
  const auto rep = core::classify(gen.graph);
  EXPECT_FALSE(rep.structured);
  EXPECT_FALSE(rep.single_touch);
  EXPECT_FALSE(rep.violations.empty());
}

TEST(AblationMix, PrematureTouchesTrackTheFraction) {
  // With frac = 0 no schedule produces premature checks; with frac = 1
  // thieving schedules do.
  std::uint64_t prem_structured = 0, prem_unstructured = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SimOptions opts;
    opts.procs = 4;
    opts.seed = seed;
    opts.stall_prob = 0.3;
    {
      const auto gen = graphs::unstructured_mix(16, 0.0, 16, 3);
      prem_structured +=
          sched::simulate(gen.graph, opts).premature_touches;
    }
    {
      const auto gen = graphs::unstructured_mix(16, 1.0, 16, 3);
      prem_unstructured +=
          sched::simulate(gen.graph, opts).premature_touches;
    }
  }
  EXPECT_EQ(prem_structured, 0u);
  EXPECT_GT(prem_unstructured, 0u);
}

TEST(AblationMix, HazardGrowsWithTheUnstructuredFraction) {
  // Section 7: premature checks appear as soon as any consumer is forked
  // before its producer and grow with that fraction; so do deviations.
  double prev_premature = -1, prev_devs = -1;
  for (const double frac : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const auto gen = graphs::unstructured_mix(24, frac, 16, 7);
    EXPECT_EQ(core::classify(gen.graph).single_touch, frac == 0.0);
    double premature = 0, devs = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SimOptions opts;
      opts.procs = 4;
      opts.seed = seed;
      opts.stall_prob = 0.3;
      const auto r = sched::run_experiment(gen.graph, opts);
      premature += static_cast<double>(r.par.premature_touches);
      devs += static_cast<double>(r.deviations.deviations);
    }
    EXPECT_EQ(premature == 0, frac == 0.0) << "frac=" << frac;
    EXPECT_GT(premature, prev_premature) << "frac=" << frac;
    EXPECT_GE(devs, prev_devs) << "frac=" << frac;
    prev_premature = premature;
    prev_devs = devs;
  }
}

TEST(AblationMix, ExecutesCompletelyUnderAnySchedule) {
  for (double frac : {0.0, 0.5, 1.0}) {
    const auto gen = graphs::unstructured_mix(10, frac, 6, 5);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      SimOptions opts;
      opts.procs = 3;
      opts.seed = seed;
      opts.stall_prob = 0.2;
      const auto r = sched::simulate(gen.graph, opts);
      std::size_t total = 0;
      for (const auto& po : r.proc_orders) total += po.size();
      EXPECT_EQ(total, gen.graph.num_nodes());
    }
  }
}

TEST(StolenNodes, RecordedInStealOrder) {
  auto gen = graphs::binary_forkjoin_tree(6, 2);
  SimOptions opts;
  opts.procs = 8;
  opts.seed = 5;
  const auto r = sched::simulate(gen.graph, opts);
  EXPECT_EQ(r.stolen_nodes.size(), r.steals);
  // Every stolen node is a fork child (only fork children enter deques).
  for (core::NodeId v : r.stolen_nodes) {
    const auto preds = gen.graph.predecessors(v);
    ASSERT_EQ(preds.size(), 1u);
    EXPECT_TRUE(gen.graph.is_fork(preds[0].node));
  }
}

}  // namespace
}  // namespace wsf
