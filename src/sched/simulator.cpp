#include "sched/simulator.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "support/check.hpp"

namespace wsf::sched {

Simulator::Simulator(const core::Graph& g, const SimOptions& opts,
                     ScheduleController* controller)
    : g_(g), opts_(opts), controller_(controller) {
  WSF_REQUIRE(opts_.procs >= 1, "need at least one processor");
  if (!controller_) {
    owned_controller_ = std::make_unique<RandomController>(
        opts_.seed, opts_.stall_prob, opts_.steal_nonempty_only,
        opts_.victim_policy);
    controller_ = owned_controller_.get();
  }
  pending_.resize(g_.num_nodes());
  executed_.resize(g_.num_nodes());
  current_.resize(opts_.procs);
  deques_.resize(opts_.procs);
  if (opts_.cache_lines > 0) {
    caches_.reserve(opts_.procs);
    for (std::uint32_t p = 0; p < opts_.procs; ++p)
      caches_.push_back(
          cache::make_cache(opts_.cache_policy, opts_.cache_lines));
  }
  reset_state();
}

void Simulator::reset_state() {
  const std::size_t n = g_.num_nodes();
  for (core::NodeId v = 0; v < static_cast<core::NodeId>(n); ++v)
    pending_[v] = static_cast<std::uint32_t>(g_.in_degree(v));
  std::fill(executed_.begin(), executed_.end(), 0);
  std::fill(current_.begin(), current_.end(), core::kInvalidNode);
  for (auto& deque : deques_) deque.clear();  // keeps the ring buffers
  for (auto& cache : caches_) cache->reset();
  executed_count_ = 0;
  round_ = 0;
  ran_ = false;
  // Field-wise clear instead of `result_ = SimResult()`: a run_in_place()
  // replicate loop keeps the trace buffers' capacity across resets, so a
  // steady-state replicate allocates nothing result-sided.
  result_.steps = 0;
  result_.steals = 0;
  result_.steal_attempts = 0;
  result_.failed_steals = 0;
  result_.batch_steals = 0;
  result_.batch_stolen_items = 0;
  result_.idle_steps = 0;
  result_.declined_steals = 0;
  result_.premature_touches = 0;
  result_.stolen_nodes.clear();
  result_.global_order.clear();
  if (opts_.record_trace) {
    result_.proc_orders.resize(opts_.procs);
    for (auto& order : result_.proc_orders) {
      order.clear();
      order.reserve(n / opts_.procs + 1);
    }
    result_.executed_by.assign(n, 0);
    result_.global_order.reserve(n);
  } else {
    result_.proc_orders.clear();
    result_.executed_by.clear();
  }
  result_.misses_per_proc.assign(opts_.procs, 0);
}

void Simulator::reset(std::uint64_t seed) {
  WSF_REQUIRE(owned_controller_ != nullptr,
              "Simulator::reset requires the simulator-owned random "
              "controller; an external controller carries schedule state "
              "the simulator cannot rewind");
  opts_.seed = seed;
  owned_controller_->reseed(seed);
  reset_state();
}

SimResult simulate(const core::Graph& g, const SimOptions& opts,
                   ScheduleController* controller) {
  Simulator sim(g, opts, controller);
  return sim.run();
}

SimResult Simulator::run() {
  run_in_place();
  return std::move(result_);
}

const SimResult& Simulator::run_in_place() {
  WSF_REQUIRE(!ran_, "Simulator::run may be called once");
  ran_ = true;
  const std::size_t n = g_.num_nodes();
  // The computation starts with the root assigned to processor 0 (the
  // paper's executions always start this way; a different "root processor"
  // is just a relabeling).
  current_[0] = g_.root();

  const std::uint64_t max_steps =
      opts_.max_steps ? opts_.max_steps
                      : (64 + 64 * static_cast<std::uint64_t>(n)) *
                            std::max<std::uint64_t>(1, opts_.procs);
  controller_->on_start(*this);

  while (executed_count_ < n) {
    WSF_CHECK(round_ < max_steps,
              "simulation did not finish within "
                  << max_steps << " rounds (controller deadlock? "
                  << executed_count_ << "/" << n << " nodes executed)");
    // Every awake processor acts exactly once per round, including the
    // trailing processors of the round in which the computation completes
    // (their turns are necessarily declined/failed steal attempts, since no
    // deque holds work once every node has executed). Bailing mid-round
    // here would count a partial round as a full step and silently drop the
    // trailing processors' idle/steal accounting — see SimResult::steps.
    for (core::ProcId p = 0; p < opts_.procs; ++p) {
      if (!controller_->awake(*this, p)) {
        ++result_.idle_steps;
        continue;
      }
      if (current_[p] == core::kInvalidNode) {
        if (!deques_[p].empty()) {
          // Pop the bottom of the own deque and execute it this round.
          current_[p] = deques_[p].back();
          deques_[p].pop_back();
        } else {
          try_steal(p);
          continue;  // a steal attempt consumes the round
        }
      }
      const core::NodeId v = current_[p];
      current_[p] = core::kInvalidNode;
      execute(p, v);
    }
    ++round_;
  }
  result_.steps = round_;
  for (core::ProcId p = 0; p < opts_.procs; ++p)
    WSF_CHECK(deques_[p].empty() && current_[p] == core::kInvalidNode,
              "processor " << p << " still holds work after completion");
  return result_;
}

void Simulator::try_steal(core::ProcId p) {
  const core::ProcId victim = controller_->pick_victim(*this, p);
  if (victim == p || victim >= opts_.procs) {
    // Controller declined the attempt this round.
    ++result_.declined_steals;
    return;
  }
  ++result_.steal_attempts;
  if (deques_[victim].empty()) {
    ++result_.failed_steals;
    return;
  }
  const std::size_t observed = deques_[victim].size();
  const core::NodeId stolen = deques_[victim].front();  // top of the deque
  deques_[victim].pop_front();
  ++result_.steals;
  if (opts_.record_trace) result_.stolen_nodes.push_back(stolen);
  current_[p] = stolen;  // executed next round (a steal costs one round)
  if (opts_.steal_policy == core::StealPolicy::Half && observed >= 2) {
    // Steal-half: the same operation also claims the rest of the victim's
    // top half — ceil(observed/2) nodes total, the first of which is
    // `stolen`. The extras land on the thief's deque (empty by the run
    // loop's precondition) ordered exactly as the runtime's batch steal:
    // the thief's own pops run them oldest-first, while its deque top
    // holds the newest extra for onward thieves.
    const std::size_t extras = (observed + 1) / 2 - 1;
    WSF_DCHECK(deques_[p].empty(), "batch extras onto a non-empty deque");
    for (std::size_t i = 0; i < extras; ++i) {
      const core::NodeId e = deques_[victim].front();
      deques_[victim].pop_front();
      if (opts_.record_trace) result_.stolen_nodes.push_back(e);
      deques_[p].push_front(e);  // reverses: oldest extra ends at the bottom
    }
    ++result_.batch_steals;
    result_.batch_stolen_items += extras;
  }
  controller_->on_steal(*this, p, victim, stolen);
}

void Simulator::execute(core::ProcId p, core::NodeId v) {
  WSF_DCHECK(!executed_[v], "node executed twice");
  const core::BlockId block = g_.block_of(v);
  if (!caches_.empty() && block != core::kNoBlock) {
    if (caches_[p]->access(block)) ++result_.misses_per_proc[p];
  }
  executed_[v] = 1;
  ++executed_count_;
  if (opts_.record_trace) {
    result_.proc_orders[p].push_back(v);
    result_.global_order.push_back(v);
    result_.executed_by[v] = p;
  }

  core::HalfEdge enabled[2];
  int enabled_count = 0;
  for (const core::HalfEdge& out : g_.successors(v)) {
    const core::NodeId succ = out.node;
    WSF_DCHECK(pending_[succ] > 0);
    if (--pending_[succ] == 0) {
      enabled[enabled_count++] = out;
    } else if (out.kind == core::EdgeKind::Continuation &&
               g_.is_touch(succ) && succ != g_.final_node()) {
      // The processor just reached (checked) a touch that is not ready. If
      // the fork spawning the touched future has not even executed yet, the
      // touch was checked before its future thread exists — the Figure 3
      // hazard that structured computations exclude.
      const core::NodeId fork = g_.corresponding_fork_of(succ);
      if (fork != core::kInvalidNode && !executed_[fork])
        ++result_.premature_touches;
    }
  }
  controller_->on_execute(*this, p, v);

  if (enabled_count == 2) {
    int take = 0;
    if (g_.is_fork(v)) {
      const bool take_future = opts_.policy == core::ForkPolicy::FutureFirst;
      take =
          (enabled[0].kind == core::EdgeKind::Future) == take_future ? 0 : 1;
    } else {
      const bool take_touch = opts_.touch_enable == TouchEnable::TouchFirst;
      take =
          (enabled[0].kind == core::EdgeKind::Touch) == take_touch ? 0 : 1;
    }
    deques_[p].push_back(enabled[1 - take].node);  // bottom of the deque
    current_[p] = enabled[take].node;
  } else if (enabled_count == 1) {
    current_[p] = enabled[0].node;
  }
  // enabled_count == 0: the processor will pop or steal next round.
}

}  // namespace wsf::sched
