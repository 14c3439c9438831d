// Replays a computation DAG on the real work-stealing runtime.
//
// The simulator (sched::Simulator) executes a core::Graph under the paper's
// round-based ABP model; this layer executes the *same* graph on the fiber
// runtime (runtime::Scheduler): one future is spawned per future thread at
// its fork node (honoring the scheduler's core::ForkPolicy, the enum the
// simulator takes too), and every touch edge becomes a real
// synchronization — the consumer fiber parks on a per-edge event and the
// producer wakes it when the future parent executes, following the
// touch-enable rule (sched::TouchEnable):
//   * TouchFirst — the producer suspends, pushes its own continuation, and
//     switches to the woken consumer (eager resume);
//   * ContinuationFirst — the producer pushes the consumer onto its deque
//     and keeps running its own thread.
//
// With one worker the resulting node execution order is exactly the
// sequential baseline's (tests/test_replay.cpp asserts this on every
// registered graph family); with P workers the recorded per-worker orders
// feed core::count_deviations, so the simulator's deviation measure and the
// runtime's are the same function over the same row shape — the sim-vs-
// runtime validation the experiment pipeline's RuntimeBackend performs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/graph.hpp"
#include "core/ids.hpp"
#include "runtime/counters.hpp"
#include "runtime/future.hpp"
#include "runtime/pool.hpp"
#include "sched/options.hpp"

namespace wsf::runtime {

struct ReplayOptions {
  /// Producer-side choice when a publish finds a parked consumer and the
  /// producer still has a continuation of its own (sched/options.hpp).
  sched::TouchEnable touch_enable = sched::TouchEnable::TouchFirst;
  /// Ask the scheduler for a per-job counter snapshot and report the job's
  /// delta in ReplayResult::counters. Exact when the replay has the
  /// scheduler to itself (the sweep backend holds an exclusive lease);
  /// leave off on hot admission paths (wsf-load) where per-job baselines
  /// would both allocate and blur across tenants.
  bool job_counters = true;
  /// Inbox priority class for the replay job (JobOptions::priority).
  JobPriority priority = JobPriority::Normal;
  /// Relative deadline for the replay job (JobOptions::deadline); 0 =
  /// none. A replay shed past its deadline never runs — collect() reports
  /// outcome == JobOutcome::Shed with zeroed measures instead of failing.
  std::chrono::microseconds deadline{0};
};

/// Measures of one replay run. The per-worker node orders live in the
/// GraphReplayer (worker_orders()) so replicate loops can reuse their
/// allocations.
struct ReplayResult {
  /// This job's counter delta (empty when ReplayOptions::job_counters is
  /// off).
  CountersReport counters;
  /// Touches reached before the fork spawning their future thread executed
  /// (the Figure 3 hazard; 0 for structured computations).
  std::uint64_t premature_touches = 0;
  /// Admission-to-completion wall time of the job, microseconds
  /// (queue_us + service_us).
  std::uint64_t wall_us = 0;
  /// Admission-to-first-run wait (queue time), microseconds.
  std::uint64_t queue_us = 0;
  /// First-run-to-completion wall time (service time), microseconds — the
  /// locality-sensitive measure: admission backlog under load is excluded.
  std::uint64_t service_us = 0;
  /// How the job ended. Completed unless the replay carried a deadline it
  /// missed (Shed: the node/measure fields above are zero — it never ran)
  /// or its batch was dropped (Abandoned).
  JobOutcome outcome = JobOutcome::Completed;
};

/// Reusable arena for replaying one graph: per-touch-edge events, executed
/// marks, and per-worker order vectors are allocated once and recycled
/// across replicates — the runtime analogue of Simulator::reset.
class GraphReplayer {
 public:
  explicit GraphReplayer(const core::Graph& g);

  /// Executes the whole DAG on `sched` and returns the run's measures —
  /// submit() + collect(). Not reentrant: one run at a time per replayer
  /// (several replayers may share one scheduler concurrently).
  ReplayResult run(Scheduler& sched, const ReplayOptions& opts = {});

  /// Admits the replay as one scheduler job and returns immediately.
  void submit(Scheduler& sched, const ReplayOptions& opts = {});
  /// Stages the replay into `batch` (admitted when the batch is submitted).
  void stage(Batch& batch, const ReplayOptions& opts = {});
  /// Blocks until the job admitted by submit()/stage() completes and
  /// returns its measures.
  ReplayResult collect();

  /// Node sequences per worker recorded by the last run(), in execution
  /// order; concatenated they cover every node exactly once. Valid until
  /// the next run().
  const std::vector<std::vector<core::NodeId>>& worker_orders() const {
    return orders_;
  }

 private:
  /// Resets the arenas for a fresh run on a scheduler with `workers`
  /// workers.
  void prepare(std::uint32_t workers, const ReplayOptions& opts);
  void run_thread(core::ThreadId tid);
  void wait_gates(core::NodeId v);
  void record(core::NodeId v);
  void publish(core::NodeId v, core::NodeId cont);
  /// The first synchronization `v` still has to wait for: the event of its
  /// incoming touch edge, then (for the final node) each super-final
  /// predecessor's event. nullptr when every gate is ready — i.e. the node
  /// is enabled in the ABP sense as soon as its local parent executed.
  detail::FutureStateBase* unready_gate(core::NodeId v);
  detail::FutureStateBase& event_of(core::NodeId producer);

  const core::Graph& g_;
  /// events_[event_index_[v]] is published when v (a node with an outgoing
  /// touch edge, including super-final predecessors) executes.
  std::vector<std::int32_t> event_index_;
  std::unique_ptr<detail::FutureStateBase[]> events_;
  std::size_t event_count_ = 0;
  std::unique_ptr<std::atomic<std::uint8_t>[]> executed_;
  std::vector<std::vector<core::NodeId>> orders_;
  std::atomic<std::uint64_t> premature_{0};
  bool touch_first_ = true;
  bool job_counters_ = true;
  JobHandle<void> handle_;
};

}  // namespace wsf::runtime
