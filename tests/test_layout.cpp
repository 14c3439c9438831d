// Node memory-layout orders (core/layout.hpp) and their central property:
// relabeling a DAG into a different node order changes where nodes live in
// memory but not the schedule structure, so every schedule-structure
// measure — deviations, steals, steps, and (because block annotations move
// with their nodes) cache misses — is invariant under it. This is what
// makes `layout` a legitimate experimental axis: any measured difference
// between layouts comes from the memory system, never from the scheduler
// seeing a different computation.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/deviation.hpp"
#include "core/layout.hpp"
#include "core/traversal.hpp"
#include "exp/analysis.hpp"
#include "exp/sweep.hpp"
#include "graphs/registry.hpp"
#include "runtime/pool.hpp"
#include "runtime/replay.hpp"
#include "sched/sequential.hpp"
#include "sched/simulator.hpp"

namespace wsf {
namespace {

using core::NodeId;
using core::NodeOrderKind;

constexpr NodeOrderKind kAllKinds[] = {
    NodeOrderKind::Construction, NodeOrderKind::Dfs,
    NodeOrderKind::Sequential, NodeOrderKind::Random};

graphs::RegistryParams small_params() {
  graphs::RegistryParams params;
  params.size = 6;
  params.size2 = 3;
  params.cache_lines = 8;  // annotate blocks so miss counts are exercised
  params.seed = 1;
  return params;
}

TEST(NodeOrder, PermutationPinsRootAndInverts) {
  for (const std::string& family : graphs::registry_names()) {
    const auto gen = graphs::make_named(family, small_params());
    for (const NodeOrderKind kind : kAllKinds) {
      const core::NodeOrder order =
          sched::make_node_order(gen.graph, kind, 7);
      const std::size_t n = gen.graph.num_nodes();
      ASSERT_EQ(order.new_id_of.size(), n) << family;
      ASSERT_EQ(order.old_id_of.size(), n) << family;
      EXPECT_EQ(order.kind, kind);
      // The root keeps id 0 (relabeled_graph requires it), and the two
      // mappings are inverse permutations.
      EXPECT_EQ(order.new_id_of[0], 0u) << family;
      EXPECT_EQ(order.old_id_of[0], 0u) << family;
      for (NodeId v = 0; v < static_cast<NodeId>(n); ++v)
        ASSERT_EQ(order.old_id_of[order.new_id_of[v]], v)
            << family << " " << core::to_string(kind);
    }
  }
}

TEST(NodeOrder, ToOriginalMapsRelabeledIdsBack) {
  const auto gen = graphs::make_named("fig4", small_params());
  const core::NodeOrder order =
      sched::make_node_order(gen.graph, NodeOrderKind::Dfs, 1);
  std::vector<NodeId> relabeled;
  for (NodeId v = 0; v < static_cast<NodeId>(gen.graph.num_nodes()); ++v)
    relabeled.push_back(order.new_id_of[v]);
  const std::vector<NodeId> back = order.to_original(relabeled);
  for (NodeId v = 0; v < static_cast<NodeId>(back.size()); ++v)
    ASSERT_EQ(back[v], v);
}

TEST(RelabeledGraph, StructuralStatsInvariant) {
  for (const std::string& family : graphs::registry_names()) {
    const auto gen = graphs::make_named(family, small_params());
    const core::DagStats base = core::compute_stats(gen.graph);
    for (const NodeOrderKind kind : kAllKinds) {
      if (kind == NodeOrderKind::Construction) continue;
      const core::NodeOrder order =
          sched::make_node_order(gen.graph, kind, 7);
      // relabeled_graph validates the result internally; the stats cross-
      // check asserts the DAG is the *same* computation, renumbered.
      const core::Graph g2 =
          core::relabeled_graph(gen.graph, order.new_id_of);
      EXPECT_EQ(g2.num_nodes(), gen.graph.num_nodes()) << family;
      EXPECT_EQ(g2.num_edges(), gen.graph.num_edges()) << family;
      EXPECT_EQ(g2.num_threads(), gen.graph.num_threads()) << family;
      const core::DagStats stats = core::compute_stats(g2);
      EXPECT_EQ(stats.nodes, base.nodes) << family;
      EXPECT_EQ(stats.span, base.span) << family;
      EXPECT_EQ(stats.touches, base.touches) << family;
    }
  }
}

// The deterministic-simulator half of the invariance property: for every
// registered family, the replicate aggregates the sweep actually reports
// (deviations, additional misses, steals, steps) are exactly equal across
// all four node orders — same seeds, same options, renumbered graph.
TEST(LayoutInvariance, SimulatorMeasuresExactAcrossOrders) {
  sched::SimOptions opts;
  opts.procs = 4;
  opts.cache_lines = 8;
  constexpr std::uint64_t kSeedBase = 7;
  constexpr std::uint64_t kSeeds = 3;
  for (const std::string& family : graphs::registry_names()) {
    const auto gen = graphs::make_named(family, small_params());
    const exp::SweepCell base =
        exp::run_replicates(gen.graph, opts, kSeedBase, kSeeds);
    for (const NodeOrderKind kind : kAllKinds) {
      if (kind == NodeOrderKind::Construction) continue;
      const core::NodeOrder order =
          sched::make_node_order(gen.graph, kind, 7);
      const core::Graph g2 =
          core::relabeled_graph(gen.graph, order.new_id_of);
      const exp::SweepCell cell =
          exp::run_replicates(g2, opts, kSeedBase, kSeeds);
      const std::string at =
          family + " layout=" + core::to_string(kind);
      EXPECT_EQ(cell.deviations.mean(), base.deviations.mean()) << at;
      EXPECT_EQ(cell.additional_misses.mean(),
                base.additional_misses.mean())
          << at;
      EXPECT_EQ(cell.seq_misses.mean(), base.seq_misses.mean()) << at;
      EXPECT_EQ(cell.steals.mean(), base.steals.mean()) << at;
      EXPECT_EQ(cell.steps.mean(), base.steps.mean()) << at;
    }
  }
}

// The runtime half: at one worker the replay order of a relabeled graph is
// exactly its own sequential baseline — zero deviations under every node
// order, for both spawn policies. (P>1 runtime runs are nondeterministic,
// so the exact-count comparison lives in the simulator test above.)
TEST(LayoutInvariance, RuntimeOneWorkerMatchesSequentialUnderAnyOrder) {
  for (const core::ForkPolicy policy :
       {core::ForkPolicy::FutureFirst, core::ForkPolicy::ParentFirst}) {
    runtime::RuntimeOptions ropts;
    ropts.workers = 1;
    ropts.policy = policy;
    runtime::Scheduler sched(ropts);
    sched::SimOptions seq_opts;
    seq_opts.policy = policy;
    for (const std::string& family : graphs::registry_names()) {
      const auto gen = graphs::make_named(family, small_params());
      for (const NodeOrderKind kind :
           {NodeOrderKind::Dfs, NodeOrderKind::Sequential,
            NodeOrderKind::Random}) {
        const core::NodeOrder order =
            sched::make_node_order(gen.graph, kind, 7);
        const core::Graph g2 =
            core::relabeled_graph(gen.graph, order.new_id_of);
        const sched::SeqResult seq = sched::run_sequential(g2, seq_opts);

        runtime::GraphReplayer replayer(g2);
        (void)replayer.run(sched, {});
        const auto& orders = replayer.worker_orders();
        ASSERT_EQ(orders.size(), 1u);
        EXPECT_EQ(orders[0], seq.order)
            << family << " layout=" << core::to_string(kind)
            << " policy=" << to_string(policy);
        const core::DeviationReport dev =
            core::count_deviations(g2, seq.order, orders);
        EXPECT_EQ(dev.deviations, 0u)
            << family << " layout=" << core::to_string(kind);
      }
    }
  }
}

// End-to-end through the sweep layer: the layout axis expands into its own
// configurations referencing relabeled shared graphs, the result table
// carries the layout identity column, and — invariance again — the
// deviation cells agree across layouts row-for-row.
TEST(SweepLayoutAxis, ExpandsAndReportsInvariantMeasures) {
  exp::SweepSpec spec;
  spec.graphs.push_back({"fig4", small_params(), {}});
  spec.procs = {1, 4};
  spec.cache_lines = {0, 8};
  spec.layouts = {NodeOrderKind::Construction, NodeOrderKind::Dfs,
                  NodeOrderKind::Sequential, NodeOrderKind::Random};
  spec.seeds = 2;

  const std::vector<exp::SweepConfig> configs = exp::expand_spec(spec);
  ASSERT_EQ(configs.size(), 2u * 4u * 2u);  // cache × layouts × procs
  const auto graphs_list = exp::generate_graphs(spec);
  ASSERT_EQ(graphs_list.size(), 2u * 4u);
  for (const exp::SweepConfig& cfg : configs) {
    ASSERT_LT(cfg.graph_index, graphs_list.size());
    // Every config's graph is the same computation, relabeled.
    EXPECT_EQ(graphs_list[cfg.graph_index].graph.num_nodes(),
              graphs_list.front().graph.num_nodes());
  }

  const exp::SweepResult result = exp::run_sweep(spec, 2);
  const support::Table table = exp::to_table(result);
  ASSERT_TRUE(table.has_column("layout"));
  const std::vector<std::string> layouts =
      exp::analysis::distinct(table, "layout");
  EXPECT_EQ(layouts.size(), 4u);

  // Group rows by everything except layout: each group's deviation cells
  // must agree across its four layout rows.
  const std::size_t c_procs = table.column_index("procs");
  const std::size_t c_cache = table.column_index("cache_lines");
  const std::size_t c_layout = table.column_index("layout");
  const std::size_t c_dev = table.column_index("mean_deviations");
  std::map<std::string, std::string> dev_of;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    const std::string key =
        table.cell(r, c_procs) + "/" + table.cell(r, c_cache);
    const auto [it, fresh] = dev_of.emplace(key, table.cell(r, c_dev));
    if (!fresh) {
      EXPECT_EQ(table.cell(r, c_dev), it->second)
          << "procs/cache " << key << " layout "
          << table.cell(r, c_layout);
    }
  }
}

}  // namespace
}  // namespace wsf
