// Scheduler-as-a-service lifecycle: repeated and concurrent jobs on one
// long-lived Scheduler (per-job completion tracking), batched admission,
// abandoned-batch semantics, jobs whose handles were dropped, a job that
// completes while its worker runs another job, steady-state
// fiber-stack reuse across a 10k job stream, stack lending between the
// workers' free lists, per-job counter snapshots, multi-tenant
// interleaving (two graphs replayed concurrently keep their standalone
// deviation counts), and the process-wide SharedScheduler registry. Runs
// under the tsan preset (label: runtime).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/deviation.hpp"
#include "core/policy.hpp"
#include "graphs/registry.hpp"
#include "runtime/pool.hpp"
#include "runtime/replay.hpp"
#include "sched/options.hpp"
#include "sched/sequential.hpp"
#include "support/check.hpp"
#include "support/thread_safety.hpp"

namespace wsf {
namespace {

using core::ForkPolicy;
using sched::TouchEnable;

class ServiceBothPolicies
    : public ::testing::TestWithParam<ForkPolicy> {};

INSTANTIATE_TEST_SUITE_P(Policies, ServiceBothPolicies,
                         ::testing::Values(ForkPolicy::FutureFirst,
                                           ForkPolicy::ParentFirst),
                         [](const auto& info) {
                           return info.param == ForkPolicy::FutureFirst
                                      ? "FutureFirst"
                                      : "ParentFirst";
                         });

int tree_sum(int depth) {
  if (depth == 0) return 1;
  auto left = runtime::spawn([depth] { return tree_sum(depth - 1); });
  const int right = tree_sum(depth - 1);
  return left.touch() + right;
}

TEST_P(ServiceBothPolicies, RepeatedRunBackToBack) {
  // The regression the service rework guards: one Scheduler instance must
  // serve an arbitrary stream of run() jobs — the lifecycle (completion
  // tracking, fiber bookkeeping) fully resets between jobs.
  runtime::Scheduler sched({.workers = 2, .policy = GetParam()});
  for (int round = 0; round < 5; ++round) {
    const int sum = sched.run([] { return tree_sum(4); });
    EXPECT_EQ(sum, 1 << 4) << "round " << round;
  }
}

TEST_P(ServiceBothPolicies, ConcurrentJobsCompleteIndependently) {
  // A short job's run() must return while an unrelated long job is still
  // in flight. Under the old scheduler-global quiescence wait this
  // deadlocks: the short submitter waits for *all* outstanding tasks,
  // including the gated long job that is only released afterwards.
  runtime::Scheduler sched({.workers = 2, .policy = GetParam()});
  std::atomic<bool> release{false};
  auto long_job = sched.submit([&release] {
    while (!release.load(std::memory_order_acquire))
      std::this_thread::yield();
    return 42;
  });
  const int quick = sched.run([] { return tree_sum(3); });
  EXPECT_EQ(quick, 1 << 3);
  EXPECT_FALSE(long_job.done());
  release.store(true, std::memory_order_release);
  EXPECT_EQ(long_job.wait(), 42);
}

TEST_P(ServiceBothPolicies, BatchAdmitsAllJobsInOneOperation) {
  runtime::Scheduler sched({.workers = 2, .policy = GetParam()});
  std::vector<runtime::JobHandle<int>> handles;
  runtime::Batch batch(sched);
  for (int i = 0; i < 32; ++i)
    handles.push_back(batch.add([i] { return i * i + tree_sum(2) - 4; }));
  EXPECT_EQ(batch.size(), 32u);
  sched.submit(std::move(batch));
  for (int i = 0; i < 32; ++i) EXPECT_EQ(handles[i].wait(), i * i);
}

TEST_P(ServiceBothPolicies, AbandonedBatchMakesWaitThrow) {
  runtime::Scheduler sched({.workers = 1, .policy = GetParam()});
  runtime::JobHandle<int> handle;
  {
    runtime::Batch batch(sched);
    handle = batch.add([] { return 7; });
    // Batch destroyed without Scheduler::submit: the job never runs.
  }
  EXPECT_TRUE(handle.done());
  EXPECT_THROW(handle.wait(), CheckError);
}

TEST_P(ServiceBothPolicies, ExceptionPropagatesThroughHandle) {
  runtime::Scheduler sched({.workers = 2, .policy = GetParam()});
  auto handle = sched.submit(
      []() -> int { throw std::runtime_error("job failed"); });
  EXPECT_THROW(handle.wait(), std::runtime_error);
  // The scheduler stays healthy for the next job.
  EXPECT_EQ(sched.run([] { return tree_sum(3); }), 1 << 3);
}

TEST_P(ServiceBothPolicies, SecondWaitOnAValueJobFails) {
  // wait() takes a non-void result, as touch() does: a second call must
  // fail loudly instead of moving from the already-destroyed value.
  runtime::Scheduler sched({.workers = 2, .policy = GetParam()});
  const std::string expected(100, 'x');
  auto handle = sched.submit([&expected] { return expected; });
  EXPECT_EQ(handle.wait(), expected);
  EXPECT_THROW(handle.wait(), CheckError);
  // The handle still reports how the job ended.
  EXPECT_TRUE(handle.done());
  EXPECT_EQ(handle.outcome(), runtime::JobOutcome::Completed);
  EXPECT_EQ(handle.wait_outcome(), runtime::JobOutcome::Completed);
}

TEST_P(ServiceBothPolicies, DrainWaitsForFireAndForgetJobs) {
  runtime::Scheduler sched({.workers = 2, .policy = GetParam()});
  std::atomic<int> effects{0};
  std::vector<runtime::JobHandle<void>> handles;
  for (int i = 0; i < 16; ++i)
    handles.push_back(sched.submit([&effects] {
      auto f = runtime::spawn(
          [&effects] { effects.fetch_add(1, std::memory_order_relaxed); });
      effects.fetch_add(1, std::memory_order_relaxed);
      (void)f;  // never touched: quiescence must still cover it
    }));
  sched.drain();
  EXPECT_EQ(effects.load(), 32);
  for (auto& h : handles) EXPECT_TRUE(h.done());
}

TEST_P(ServiceBothPolicies, DroppedHandleJobStillCompletes) {
  // Work items point at their job's state without owning it; the
  // scheduler's own keep-alive reference must hold the state until the
  // job's last task finishes, even when every handle is dropped while the
  // jobs are still queued or running. Under ASan a work item that outlives
  // the state is a heap-use-after-free.
  runtime::Scheduler sched({.workers = 2, .policy = GetParam()});
  std::atomic<int> effects{0};
  constexpr int kJobs = 64;
  {
    std::vector<runtime::JobHandle<void>> handles;
    for (int i = 0; i < kJobs; ++i)
      handles.push_back(sched.submit([&effects] {
        effects.fetch_add(tree_sum(4), std::memory_order_relaxed);
      }));
  }
  sched.drain();
  EXPECT_EQ(effects.load(), kJobs * (1 << 4));
}

TEST_P(ServiceBothPolicies, FinishedJobCompletesWhileItsWorkerRunsAnotherJob) {
  // A worker's finish credits belong to one job, and a job completes only
  // once every worker has flushed its credits for it. The one worker takes
  // both jobs in one inbox take, so `gated` sits on its deque under
  // `quick`'s items: `quick` completes only if the worker flushes its
  // credits when it switches to `gated`, which then runs until released.
  runtime::Scheduler sched({.workers = 1, .policy = GetParam()});
  std::atomic<bool> release{false};
  runtime::Batch batch(sched);
  auto quick = batch.add([] { return tree_sum(3); });
  auto gated = batch.add([&release] {
    while (!release.load(std::memory_order_acquire))
      std::this_thread::yield();
    return 42;
  });
  sched.submit(std::move(batch));
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!quick.done() && std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(quick.done()) << "a finished job waited on its worker's "
                               "next job";
  release.store(true, std::memory_order_release);
  EXPECT_EQ(quick.wait(), 1 << 3);
  EXPECT_EQ(gated.wait(), 42);
}

TEST_P(ServiceBothPolicies, TenThousandJobsReuseFiberStacksAtSteadyState) {
  // The fiber-return-path regression (stacks of migrated fibers used to
  // strand in their creating worker's live set until shutdown, so
  // sustained load grew stack memory unboundedly): across a 10k job
  // stream, the stack pool must cover steady state — zero fibers created
  // after warmup, every job running on recycled stacks.
  runtime::Scheduler sched(
      {.workers = 2, .policy = GetParam(), .stack_bytes = 64 * 1024});
  auto one_job = [&sched] {
    return sched.submit([] {
      auto a = runtime::spawn([] { return 1; });
      auto b = runtime::spawn([] { return 2; });
      return a.touch() + b.touch();
    });
  };
  constexpr int kWarmup = 500;
  constexpr int kJobs = 10000;
  for (int i = 0; i < kWarmup; ++i) EXPECT_EQ(one_job().wait(), 3);
  // Deterministic capacity floor on top of the warmed pool (the service's
  // prewarm API); demand variance beyond the warmup peak draws from this
  // slack instead of allocating.
  sched.prewarm(2 * sched.num_workers() + 8);
  const runtime::WorkerCounters before = sched.counters().total();
  for (int i = 0; i < kJobs; ++i) EXPECT_EQ(one_job().wait(), 3);
  const runtime::WorkerCounters after = sched.counters().total();
  const runtime::WorkerCounters delta =
      runtime::counters_since(after, before);
  EXPECT_EQ(delta.fibers_created, 0u)
      << "steady-state jobs allocated fiber stacks (pool not recycling)";
  // Every job's tasks ran on a recycled stack: ≥ 3 fibers per job.
  EXPECT_GE(delta.stacks_reused, static_cast<std::uint64_t>(3 * kJobs));
}

/// A chain of `depth` spawns: each level spawns one child and touches it,
/// so all depth + 1 tasks are live at once before the leaf returns.
int chain(int depth) {
  if (depth == 0) return 1;
  auto child = runtime::spawn([depth] { return chain(depth - 1); });
  return child.touch() + 1;
}

TEST_P(ServiceBothPolicies, PeersLendStacksBeforeAnyIsCreated) {
  // prewarm deals 6 stacks round-robin, 2 onto each worker's list. The
  // chain's 6 tasks are all live at once and none finishes during the
  // descent, so a worker whose own list runs dry must borrow from its
  // peers: creating a stack here would mean one sat unused on another
  // worker's list.
  runtime::Scheduler sched({.workers = 3, .policy = GetParam()});
  sched.prewarm(6);
  EXPECT_EQ(sched.run([] { return chain(5); }), 6);
  const runtime::WorkerCounters t = sched.counters().total();
  EXPECT_EQ(t.fibers_created, 0u);
  EXPECT_EQ(t.stacks_reused, 6u);
}

TEST_P(ServiceBothPolicies, PerJobCountersReconcileInIsolation) {
  // JobOptions::counters attaches a per-job delta built from the same
  // WorkerCounters; in isolation it must satisfy the reconciliation
  // identities the scheduler-wide counters satisfy at quiescence.
  runtime::Scheduler sched({.workers = 2, .policy = GetParam()});
  sched.run([] { return tree_sum(3); });  // background noise beforehand
  auto handle =
      sched.submit([] { return tree_sum(5); }, {.counters = true});
  EXPECT_EQ(handle.wait(), 1 << 5);
  const runtime::WorkerCounters t = handle.counters().total();
  EXPECT_EQ(t.local_pops + t.inbox_takes + t.steals,
            (t.tasks_run - t.inline_children) + t.resumes);
  EXPECT_EQ(t.resumes, t.continuations_pushed + t.wakes_pushed);
  EXPECT_EQ(t.parked_touches, t.handoff_runs + t.wakes_pushed);
  EXPECT_EQ(t.fiber_resumes, t.tasks_run + t.resumes + t.handoff_runs);
  // Exactly this job's root came through the inbox.
  EXPECT_EQ(t.inbox_takes, 1u);
  EXPECT_EQ(t.spawns, (1u << 5) - 1);
  EXPECT_GT(handle.latency_us() + 1, 0u);
}

TEST_P(ServiceBothPolicies, ManySubmittersInterleaveCorrectResults) {
  runtime::Scheduler sched({.workers = 2, .policy = GetParam()});
  constexpr int kThreads = 4;
  constexpr int kJobsEach = 50;
  std::vector<std::thread> submitters;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t)
    submitters.emplace_back([&sched, &failures] {
      for (int i = 0; i < kJobsEach; ++i)
        if (sched.run([] { return tree_sum(3); }) != 1 << 3)
          failures.fetch_add(1, std::memory_order_relaxed);
    });
  for (auto& t : submitters) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// Multi-tenant graph replay.

std::uint64_t deviations_of(const core::Graph& g,
                            const std::vector<core::NodeId>& seq_order,
                            const runtime::GraphReplayer& replayer) {
  return core::count_deviations(g, seq_order, replayer.worker_orders())
      .deviations;
}

TEST(ServiceMultiTenant, ConcurrentGraphsKeepStandaloneDeviations) {
  // Two tenants submit different graphs to ONE 1-worker scheduler from two
  // threads. Each job's recorded node order — and hence its deviation
  // count against its own sequential baseline — must be what it is when
  // the graph runs alone: per-job state (events, orders, completion) is
  // fully isolated, and a worker interleaving two jobs preserves each
  // job's internal order.
  for (const ForkPolicy policy :
       {ForkPolicy::FutureFirst, ForkPolicy::ParentFirst}) {
    for (const TouchEnable touch :
         {TouchEnable::TouchFirst, TouchEnable::ContinuationFirst}) {
      sched::SimOptions opts;
      opts.procs = 1;
      opts.policy = policy;
      opts.touch_enable = touch;
      const auto gen_a =
          graphs::make_named("fig2", {.size = 5, .size2 = 3});
      const auto gen_b =
          graphs::make_named("forkjoin", {.size = 4, .size2 = 3});
      const sched::SeqResult seq_a =
          sched::run_sequential(gen_a.graph, opts);
      const sched::SeqResult seq_b =
          sched::run_sequential(gen_b.graph, opts);

      runtime::RuntimeOptions ropts;
      ropts.workers = 1;
      ropts.policy = policy;
      runtime::ReplayOptions replay_opts;
      replay_opts.touch_enable = touch;
      replay_opts.job_counters = false;

      // Standalone runs, one tenant at a time.
      runtime::Scheduler alone(ropts);
      runtime::GraphReplayer rep_a(gen_a.graph);
      runtime::GraphReplayer rep_b(gen_b.graph);
      (void)rep_a.run(alone, replay_opts);
      (void)rep_b.run(alone, replay_opts);
      const std::uint64_t alone_a =
          deviations_of(gen_a.graph, seq_a.order, rep_a);
      const std::uint64_t alone_b =
          deviations_of(gen_b.graph, seq_b.order, rep_b);

      // Concurrent runs, several rounds to exercise interleavings.
      runtime::Scheduler shared(ropts);
      for (int round = 0; round < 8; ++round) {
        std::thread tenant_a(
            [&] { (void)rep_a.run(shared, replay_opts); });
        std::thread tenant_b(
            [&] { (void)rep_b.run(shared, replay_opts); });
        tenant_a.join();
        tenant_b.join();
        EXPECT_EQ(deviations_of(gen_a.graph, seq_a.order, rep_a), alone_a)
            << "policy=" << to_string(policy)
            << " touch=" << sched::to_string(touch) << " round=" << round;
        EXPECT_EQ(deviations_of(gen_b.graph, seq_b.order, rep_b), alone_b)
            << "policy=" << to_string(policy)
            << " touch=" << sched::to_string(touch) << " round=" << round;
      }
    }
  }
}

TEST(ServiceSharedScheduler, RegistrySharesLiveInstancesByShape) {
  runtime::RuntimeOptions opts;
  opts.workers = 2;
  auto lease_a = runtime::SharedScheduler::acquire(opts);
  auto lease_b = runtime::SharedScheduler::acquire(opts);
  EXPECT_EQ(lease_a.get(), lease_b.get()) << "same shape, same scheduler";
  opts.workers = 1;
  auto lease_c = runtime::SharedScheduler::acquire(opts);
  EXPECT_NE(lease_a.get(), lease_c.get()) << "different shape";
  // Seed does not shape the pool: it only perturbs victim selection.
  opts.workers = 2;
  opts.seed = 999;
  auto lease_d = runtime::SharedScheduler::acquire(opts);
  EXPECT_EQ(lease_a.get(), lease_d.get());
  // Leased schedulers are live services.
  EXPECT_EQ(lease_a->scheduler().run([] { return tree_sum(3); }), 1 << 3);
  EXPECT_EQ(lease_c->scheduler().run([] { return tree_sum(3); }), 1 << 3);
}

// ---- admission control & backpressure ----

/// Submits a job that occupies the single worker until `release` goes true
/// — everything admitted behind it queues in the inbox — and returns once
/// the job is actually *running* (merely admitted is not enough: a later
/// submission could otherwise land in the same inbox take and become deque
/// work).
runtime::JobHandle<int> start_gate(runtime::Scheduler& sched,
                                   std::atomic<bool>& release) {
  std::atomic<bool> started{false};
  auto handle = sched.submit([&started, &release] {
    started.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire))
      std::this_thread::yield();
    return 1;
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  return handle;
}

TEST(ServiceBackpressure, BoundedInboxBlocksThenUnblocksOnDrain) {
  // One worker, capacity 1: a gate job occupies the worker, one queued job
  // fills the inbox, and a third submission must block until a taker
  // drains the inbox. The blocked time is charged to
  // AdmissionStats::blocked_us.
  runtime::Scheduler sched({.workers = 1, .inbox_capacity = 1});
  std::atomic<bool> release{false};
  auto gate = start_gate(sched, release);
  auto queued = sched.submit([] { return 2; });

  std::atomic<bool> submitted{false};
  runtime::JobHandle<int> blocked;
  std::thread submitter([&] {
    // Inbox full: Block waits for space instead of failing or growing.
    blocked = sched.submit([] { return 3; });
    submitted.store(true, std::memory_order_release);
  });
  // The submitter must actually block (can't prove a negative forever;
  // 20ms of not-submitted is the practical assertion).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(submitted.load(std::memory_order_acquire));

  release.store(true, std::memory_order_release);
  submitter.join();  // drain unblocks the submitter
  EXPECT_EQ(gate.wait(), 1);
  EXPECT_EQ(queued.wait(), 2);
  EXPECT_EQ(blocked.wait(), 3);
  const runtime::AdmissionStats stats = sched.admission();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GT(stats.blocked_us, 0u) << "the third submit never waited";
}

TEST(ServiceBackpressure, RejectFailsFastWhenInboxFull) {
  runtime::Scheduler sched({.workers = 1, .inbox_capacity = 1});
  std::atomic<bool> release{false};
  auto gate = start_gate(sched, release);
  auto queued = sched.submit([] { return 2; });

  auto result = sched.try_submit([] { return 3; }, {},
                                 {.policy = runtime::SubmitPolicy::Reject});
  EXPECT_EQ(result.status, runtime::SubmitStatus::Rejected);
  EXPECT_FALSE(result.admitted());
  EXPECT_FALSE(result.handle.valid()) << "a rejected job has no handle";

  release.store(true, std::memory_order_release);
  EXPECT_EQ(gate.wait(), 1);
  EXPECT_EQ(queued.wait(), 2);
  // After the drain there is space again: the caller's retry succeeds.
  auto retry = sched.try_submit([] { return 3; }, {},
                                {.policy = runtime::SubmitPolicy::Reject});
  ASSERT_TRUE(retry.admitted());
  EXPECT_EQ(retry.handle.wait(), 3);
  const runtime::AdmissionStats stats = sched.admission();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.timed_out, 0u);
}

TEST(ServiceBackpressure, TimeoutExpiresOnFullInbox) {
  runtime::Scheduler sched({.workers = 1, .inbox_capacity = 1});
  std::atomic<bool> release{false};
  auto gate = start_gate(sched, release);
  auto queued = sched.submit([] { return 2; });

  const auto t0 = std::chrono::steady_clock::now();
  auto result = sched.try_submit(
      [] { return 3; }, {},
      {.policy = runtime::SubmitPolicy::Timeout,
       .timeout = std::chrono::microseconds(2000)});
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(result.status, runtime::SubmitStatus::TimedOut);
  EXPECT_GE(waited, std::chrono::microseconds(2000))
      << "timed out before the bound";

  release.store(true, std::memory_order_release);
  EXPECT_EQ(gate.wait(), 1);
  EXPECT_EQ(queued.wait(), 2);
  const runtime::AdmissionStats stats = sched.admission();
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_GT(stats.blocked_us, 0u);
}

TEST(ServiceBackpressure, PriorityOrderingAcrossMixedBatch) {
  // One gated worker; a mixed-priority batch queues entirely in the inbox.
  // Once the gate lifts, High jobs must start before Normal before Low,
  // FIFO within each class. Recording order at job start (single worker)
  // observes the take order directly.
  runtime::Scheduler sched({.workers = 1});
  std::atomic<bool> release{false};
  auto gate = start_gate(sched, release);

  support::Mutex order_mutex;
  std::vector<int> order;
  runtime::Batch batch(sched);
  std::vector<runtime::JobHandle<void>> handles;
  // Tag encodes priority*100 + submission index; interleave the classes so
  // FIFO-within-class is distinguishable from admission order.
  const runtime::JobPriority prio[] = {runtime::JobPriority::Low,
                                       runtime::JobPriority::High,
                                       runtime::JobPriority::Normal};
  for (int i = 0; i < 9; ++i) {
    const runtime::JobPriority p = prio[i % 3];
    const int tag = static_cast<int>(p) * 100 + i;
    handles.push_back(batch.add(
        [&order_mutex, &order, tag] {
          support::LockGuard lock(order_mutex);
          order.push_back(tag);
        },
        {.priority = p}));
  }
  sched.submit(std::move(batch));
  release.store(true, std::memory_order_release);
  gate.wait();
  for (auto& h : handles) h.wait();

  support::LockGuard lock(order_mutex);
  ASSERT_EQ(order.size(), 9u);
  // Non-decreasing priority class, increasing index within a class.
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(order[i - 1] / 100, order[i] / 100)
        << "priority class ran out of order at " << i;
    if (order[i - 1] / 100 == order[i] / 100) {
      EXPECT_LT(order[i - 1] % 100, order[i] % 100)
          << "FIFO broken within a class at " << i;
    }
  }
}

TEST(ServiceBackpressure, DeadlineSheddingSurfacesAsShedOutcome) {
  runtime::Scheduler sched({.workers = 1});
  std::atomic<bool> release{false};
  std::atomic<bool> doomed_ran{false};
  auto gate = start_gate(sched, release);
  // 1ms deadline, but the gate holds the worker for ≥20ms: the job must
  // be shed at take-time, never running.
  auto doomed = sched.submit(
      [&doomed_ran] { doomed_ran.store(true, std::memory_order_release); },
      {.deadline = std::chrono::milliseconds(1)});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.store(true, std::memory_order_release);
  gate.wait();

  EXPECT_EQ(doomed.wait_outcome(), runtime::JobOutcome::Shed);
  EXPECT_EQ(doomed.outcome(), runtime::JobOutcome::Shed);
  EXPECT_FALSE(doomed_ran.load(std::memory_order_acquire))
      << "a shed job must never run";
  EXPECT_THROW(doomed.wait(), CheckError);
  // The shed shows up in the worker counters and spent its whole life
  // queued: latency == queue time, zero service time.
  sched.drain();
  EXPECT_EQ(sched.counters().total().shed, 1u);
  EXPECT_GE(doomed.latency_us(), 1000u);
  EXPECT_EQ(doomed.latency_us(), doomed.queue_us());
  EXPECT_EQ(doomed.service_us(), 0u);
  // Admission-level identity: admitted == completed + shed.
  const runtime::AdmissionStats stats = sched.admission();
  EXPECT_EQ(stats.admitted, 2u);  // gate + doomed
}

TEST(ServiceBackpressure, LatencySplitsIntoQueueAndServiceTime) {
  runtime::Scheduler sched({.workers = 1});
  std::atomic<bool> release{false};
  auto gate = start_gate(sched, release);
  // Queued behind the gate for ≥3ms, then runs for ≥2ms.
  auto job = sched.submit([] {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
    while (std::chrono::steady_clock::now() < until) {}
    return 7;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  release.store(true, std::memory_order_release);
  gate.wait();
  EXPECT_EQ(job.wait(), 7);
  EXPECT_EQ(job.outcome(), runtime::JobOutcome::Completed);
  EXPECT_GE(job.queue_us(), 3000u) << "queue time missed the gate wait";
  EXPECT_GE(job.service_us(), 2000u) << "service time missed the spin";
  EXPECT_EQ(job.latency_us(), job.queue_us() + job.service_us());
}

TEST(ServiceBackpressure, OversizedBlockingBatchIsRefusedUpFront) {
  // A Block batch larger than the capacity can never fit — admitting it
  // would deadlock the submitter, so the scheduler refuses it instead.
  runtime::Scheduler sched({.workers = 1, .inbox_capacity = 2});
  runtime::Batch batch(sched);
  std::vector<runtime::JobHandle<void>> handles;
  for (int i = 0; i < 3; ++i) handles.push_back(batch.add([] {}));
  EXPECT_THROW(sched.submit(std::move(batch)), CheckError);
}

}  // namespace
}  // namespace wsf
