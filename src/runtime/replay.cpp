#include "runtime/replay.hpp"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "support/check.hpp"

namespace wsf::runtime {

GraphReplayer::GraphReplayer(const core::Graph& g) : g_(g) {
  const std::size_t n = g_.num_nodes();
  event_index_.assign(n, -1);
  std::size_t count = 0;
  for (core::NodeId v = 0; v < static_cast<core::NodeId>(n); ++v) {
    for (const core::HalfEdge& out : g_.successors(v))
      if (out.kind == core::EdgeKind::Touch)
        event_index_[v] = static_cast<std::int32_t>(count++);
  }
  event_count_ = count;
  events_ = std::make_unique<detail::FutureStateBase[]>(count);
  executed_ = std::make_unique<std::atomic<std::uint8_t>[]>(n);
}

detail::FutureStateBase& GraphReplayer::event_of(core::NodeId producer) {
  const std::int32_t index = event_index_[producer];
  WSF_DCHECK(index >= 0, "node has no outgoing touch edge");
  return events_[static_cast<std::size_t>(index)];
}

detail::FutureStateBase* GraphReplayer::unready_gate(core::NodeId v) {
  if (g_.is_touch(v)) {
    detail::FutureStateBase& e = event_of(g_.future_parent_of(v));
    if (!e.ready()) return &e;
  }
  if (v == g_.final_node())
    for (const core::NodeId pred : g_.super_final_preds()) {
      detail::FutureStateBase& e = event_of(pred);
      if (!e.ready()) return &e;
    }
  return nullptr;
}

void GraphReplayer::wait_gates(core::NodeId v) {
  // Figure 3 hazard accounting, mirroring the simulator: the consumer
  // reached a touch that is not ready although the fork spawning its future
  // thread has not even executed (impossible in structured computations).
  if (g_.is_touch(v) && v != g_.final_node() &&
      !event_of(g_.future_parent_of(v)).ready()) {
    const core::NodeId fork = g_.corresponding_fork_of(v);
    // relaxed ×2: executed_ is a hazard-accounting probe — a stale 0 at
    // worst overcounts a racy premature touch, which is what the measure
    // means; premature_ is a statistics counter read only after collect()'s
    // quiescent join.
    if (fork != core::kInvalidNode &&
        !executed_[fork].load(std::memory_order_relaxed))
      premature_.fetch_add(1, std::memory_order_relaxed);  // see above
  }
  while (detail::FutureStateBase* gate = unready_gate(v))
    detail::wait_until_ready(*gate);
}

void GraphReplayer::record(core::NodeId v) {
  // Re-read the worker on every use: the fiber may have migrated at the
  // previous suspension point.
  detail::Worker* w = detail::current_worker();
  orders_[w->id()].push_back(v);
  // relaxed: see wait_gates — executed_ feeds a tolerant statistics probe;
  // real ordering between nodes travels through the future-state events.
  executed_[v].store(1, std::memory_order_relaxed);
}

void GraphReplayer::publish(core::NodeId v, core::NodeId cont) {
  Fiber* waiter = event_of(v).publish_ready();
  if (!waiter) return;  // consumer not parked (it will see the ready event)
  detail::Worker* w = detail::current_worker();
  if (cont == core::kInvalidNode) {
    // v is its thread's last node: this fiber finishes right after the
    // publish, so the woken consumer runs next on this worker — in the
    // simulator the enabled touch is the sole enabled child and is executed
    // next, whatever the touch-enable rule.
    w->counters().direct_handoffs++;
    w->set_handoff(waiter);
    return;
  }
  if (touch_first_) {
    // Touch-first: run the enabled touch now. The producer's own
    // continuation is pushed onto the deque — unless its next node is
    // itself an unready touch (not enabled), in which case the fiber parks
    // on that touch's event instead: the simulator never pushes a node
    // that is not enabled, and matching that is what makes the 1-worker
    // replay order equal the sequential baseline.
    detail::FutureStateBase* park = unready_gate(cont);
    if (park) w->counters().parked_touches++;
    w->counters().direct_handoffs++;
    w->switch_to(*detail::current_fiber(), waiter, park);
  } else {
    // Continuation-first: wake the consumer through the deque bottom and
    // keep executing the producer's own thread.
    w->push_resume(waiter);
  }
}

void GraphReplayer::run_thread(core::ThreadId tid) {
  core::NodeId v = g_.thread_info(tid).first_node;
  while (v != core::kInvalidNode) {
    wait_gates(v);
    record(v);
    core::NodeId cont = core::kInvalidNode;
    if (g_.is_fork(v)) {
      cont = g_.fork_right_child(v);
      const core::ThreadId child =
          g_.thread_of(g_.fork_left_child(v));
      // A real future per spawned thread; the scheduler's core::ForkPolicy
      // decides whether the child runs inline with the parent
      // continuation pushed (future-first) or is pushed while the parent
      // continues (parent-first). Synchronization happens through the
      // per-touch-edge events, so the future handle itself is a side-effect
      // task the scheduler's quiescence tracking waits for.
      (void)spawn([this, child] { run_thread(child); });
    } else {
      core::NodeId touch_target = core::kInvalidNode;
      for (const core::HalfEdge& out : g_.successors(v)) {
        if (out.kind == core::EdgeKind::Continuation)
          cont = out.node;
        else if (out.kind == core::EdgeKind::Touch)
          touch_target = out.node;
      }
      if (touch_target != core::kInvalidNode) publish(v, cont);
    }
    v = cont;
  }
}

void GraphReplayer::prepare(std::uint32_t workers,
                            const ReplayOptions& opts) {
  WSF_REQUIRE(!handle_.valid(),
              "GraphReplayer: a run is already in flight (collect() it "
              "first; one run at a time per replayer)");
  const std::size_t n = g_.num_nodes();
  touch_first_ = opts.touch_enable == sched::TouchEnable::TouchFirst;
  job_counters_ = opts.job_counters;
  orders_.resize(workers);
  for (auto& order : orders_) {
    order.clear();
    order.reserve(n / workers + 1);
  }
  // relaxed throughout the reset: prepare() runs before the job is
  // submitted, and submit/run-completion (JobState's release/acquire
  // protocol) order these stores against every worker that will read them.
  for (std::size_t i = 0; i < event_count_; ++i)
    events_[i].state.store(detail::kEmpty, std::memory_order_relaxed);
  for (std::size_t v = 0; v < n; ++v)
    executed_[v].store(0, std::memory_order_relaxed);  // ditto
  premature_.store(0, std::memory_order_relaxed);      // ditto
}

void GraphReplayer::submit(Scheduler& sched, const ReplayOptions& opts) {
  prepare(sched.num_workers(), opts);
  handle_ = sched.submit(
      [this] { run_thread(g_.thread_of(g_.root())); },
      {.counters = opts.job_counters,
       .priority = opts.priority,
       .deadline = opts.deadline});
}

void GraphReplayer::stage(Batch& batch, const ReplayOptions& opts) {
  prepare(batch.scheduler().num_workers(), opts);
  handle_ = batch.add(
      [this] { run_thread(g_.thread_of(g_.root())); },
      {.counters = opts.job_counters,
       .priority = opts.priority,
       .deadline = opts.deadline});
}

ReplayResult GraphReplayer::collect() {
  WSF_REQUIRE(handle_.valid(), "collect() without a submitted run");
  JobHandle<void> handle = std::move(handle_);
  ReplayResult result;
  result.outcome = handle.wait_outcome();
  if (result.outcome != JobOutcome::Completed) {
    // The replay never ran (deadline shed, or its batch was dropped):
    // there are no nodes to check and no measures beyond the queue wait.
    result.wall_us = handle.latency_us();
    result.queue_us = handle.queue_us();
    return result;
  }

  std::size_t executed = 0;
  for (const auto& order : orders_) executed += order.size();
  WSF_CHECK(executed == g_.num_nodes(),
            "runtime replay executed " << executed << " of " << g_.num_nodes()
                                       << " nodes");
  if (job_counters_) result.counters = handle.counters();
  // relaxed: wait_outcome() above completed the job (acquire on
  // JobState::done), so every worker's counting store already
  // happens-before this read.
  result.premature_touches = premature_.load(std::memory_order_relaxed);
  result.wall_us = handle.latency_us();
  result.queue_us = handle.queue_us();
  result.service_us = handle.service_us();
  return result;
}

ReplayResult GraphReplayer::run(Scheduler& sched, const ReplayOptions& opts) {
  submit(sched, opts);
  return collect();
}

}  // namespace wsf::runtime
