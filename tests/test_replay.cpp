// Graph replay on the real work-stealing runtime (runtime/replay.hpp):
// with one worker the replayed node order must equal the sequential
// baseline (and hence the P=1 simulator) on every registered graph family
// under every policy combination; with many workers every node still
// executes exactly once, the counters reconcile, and the deviation measure
// is computable through the same core::count_deviations as the simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/deviation.hpp"
#include "core/policy.hpp"
#include "graphs/registry.hpp"
#include "runtime/replay.hpp"
#include "sched/options.hpp"
#include "sched/sequential.hpp"
#include "sched/simulator.hpp"

namespace wsf {
namespace {

using core::ForkPolicy;
using sched::TouchEnable;

graphs::RegistryParams small_params() {
  graphs::RegistryParams params;
  params.size = 4;
  params.size2 = 3;
  params.seed = 1;
  return params;
}

std::vector<core::NodeId> flatten(
    const std::vector<std::vector<core::NodeId>>& orders) {
  std::vector<core::NodeId> all;
  for (const auto& order : orders)
    all.insert(all.end(), order.begin(), order.end());
  return all;
}

TEST(Replay, OneWorkerMatchesSequentialOnEveryFamily) {
  // The acceptance gate of the runtime backend: a 1-worker replay is
  // *exactly* the sequential execution — same node order, zero deviations,
  // matching the P=1 simulator — for every registered construction, both
  // fork policies, and both touch-enable rules.
  for (const ForkPolicy policy :
       {ForkPolicy::FutureFirst, ForkPolicy::ParentFirst}) {
    runtime::RuntimeOptions ropts;
    ropts.workers = 1;
    ropts.policy = policy;
    runtime::Scheduler sched(ropts);
    for (const std::string& family : graphs::registry_names()) {
      const auto gen = graphs::make_named(family, small_params());
      runtime::GraphReplayer replayer(gen.graph);
      for (const TouchEnable touch :
           {TouchEnable::TouchFirst, TouchEnable::ContinuationFirst}) {
        sched::SimOptions opts;
        opts.procs = 1;
        opts.policy = policy;
        opts.touch_enable = touch;
        const sched::SeqResult seq = sched::run_sequential(gen.graph, opts);

        runtime::ReplayOptions replay_opts;
        replay_opts.touch_enable = touch;
        const runtime::ReplayResult r = replayer.run(sched, replay_opts);
        const auto& orders = replayer.worker_orders();
        ASSERT_EQ(orders.size(), 1u);
        EXPECT_EQ(orders[0], seq.order)
            << family << " policy=" << to_string(policy)
            << " touch=" << to_string(touch);

        const core::DeviationReport dev =
            core::count_deviations(gen.graph, seq.order, orders);
        const sched::SimResult par = sched::simulate(gen.graph, opts);
        const core::DeviationReport sim_dev =
            core::count_deviations(gen.graph, seq.order, par.proc_orders);
        EXPECT_EQ(dev.deviations, sim_dev.deviations) << family;
        EXPECT_EQ(dev.deviations, 0u) << family;

        // The Figure 3 hazard cannot occur at one worker with the exact
        // sequential order unless the simulator sees it too.
        if (gen.expect.structured == 1) {
          EXPECT_EQ(r.premature_touches, 0u) << family;
        }
      }
    }
  }
}

TEST(Replay, ReplicatesReuseArenaAndStayIdentical) {
  // One scheduler + one replayer reused across replicates (the runtime
  // analogue of Simulator::reset): at one worker every replicate is the
  // same deterministic execution.
  const auto gen = graphs::make_named("fig4", small_params());
  runtime::RuntimeOptions ropts;
  ropts.workers = 1;
  runtime::Scheduler sched(ropts);
  runtime::GraphReplayer replayer(gen.graph);
  runtime::ReplayOptions opts;
  std::vector<core::NodeId> first;
  for (int k = 0; k < 5; ++k) {
    (void)replayer.run(sched, opts);
    const auto flat = flatten(replayer.worker_orders());
    if (k == 0)
      first = flat;
    else
      EXPECT_EQ(flat, first) << "replicate " << k;
  }
}

class ReplayBothPolicies : public ::testing::TestWithParam<ForkPolicy> {};

TEST_P(ReplayBothPolicies, MultiWorkerCoversEveryNodeOnce) {
  runtime::RuntimeOptions ropts;
  ropts.workers = 4;
  ropts.policy = GetParam();
  runtime::Scheduler sched(ropts);
  for (const char* family :
       {"fig2", "fig4", "forkjoin", "pipeline", "random-local-touch"}) {
    const auto gen = graphs::make_named(family, small_params());
    runtime::GraphReplayer replayer(gen.graph);
    for (const TouchEnable touch :
         {TouchEnable::TouchFirst, TouchEnable::ContinuationFirst}) {
      runtime::ReplayOptions opts;
      opts.touch_enable = touch;
      (void)replayer.run(sched, opts);
      std::vector<core::NodeId> all = flatten(replayer.worker_orders());
      ASSERT_EQ(all.size(), gen.graph.num_nodes()) << family;
      std::sort(all.begin(), all.end());
      for (std::size_t i = 0; i < all.size(); ++i)
        ASSERT_EQ(all[i], static_cast<core::NodeId>(i))
            << family << ": node executed twice or missed";

      // Deviations are computable through the very same function the
      // simulator's measure uses; the sequential baseline must cover the
      // order (count_deviations validates coverage internally).
      sched::SimOptions sim_opts;
      sim_opts.policy = GetParam();
      sim_opts.touch_enable = touch;
      const sched::SeqResult seq = sched::run_sequential(gen.graph, sim_opts);
      const core::DeviationReport dev = core::count_deviations(
          gen.graph, seq.order, replayer.worker_orders());
      // Section 5.1's breakdown (only touches and fork children deviate)
      // is a single-touch property: local-touch graphs have interior
      // future parents whose pushed continuations can be stolen mid-
      // thread, which surfaces as an "other" deviation on any scheduler.
      if (gen.expect.structured == 1 && gen.expect.single_touch == 1) {
        EXPECT_EQ(dev.other_deviations, 0u) << family;
      }
    }
  }
}

TEST_P(ReplayBothPolicies, CountersReconcileAfterReplay) {
  runtime::RuntimeOptions ropts;
  ropts.workers = 4;
  ropts.policy = GetParam();
  runtime::Scheduler sched(ropts);
  graphs::RegistryParams params = small_params();
  params.size = 6;
  const auto gen = graphs::make_named("fig8", params);
  runtime::GraphReplayer replayer(gen.graph);
  const runtime::ReplayResult r = replayer.run(sched, {});
  const runtime::WorkerCounters t = r.counters.total();

  // One fresh task per spawned future thread plus the injected root.
  EXPECT_EQ(t.tasks_run, t.spawns + 1);
  EXPECT_EQ(t.inbox_takes, 1u);
  // Every deque/inbox-sourced job was obtained exactly one way, and every
  // Resume job that was created was executed.
  EXPECT_EQ(t.local_pops + t.inbox_takes + t.steals,
            (t.tasks_run - t.inline_children) + t.resumes);
  EXPECT_EQ(t.resumes, t.continuations_pushed + t.wakes_pushed);
  // Every park resolves through exactly one handoff or one deque wake.
  EXPECT_EQ(t.parked_touches, t.handoff_runs + t.wakes_pushed);
  // Every fiber activation has one source.
  EXPECT_EQ(t.fiber_resumes, t.tasks_run + t.resumes + t.handoff_runs);
}

INSTANTIATE_TEST_SUITE_P(Policies, ReplayBothPolicies,
                         ::testing::Values(ForkPolicy::FutureFirst,
                                           ForkPolicy::ParentFirst),
                         [](const auto& info) {
                           return info.param == ForkPolicy::FutureFirst
                                      ? "FutureFirst"
                                      : "ParentFirst";
                         });

}  // namespace
}  // namespace wsf
