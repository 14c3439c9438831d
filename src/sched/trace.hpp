// Execution traces and counters produced by the scheduler simulator.
#pragma once

#include <cstdint>
#include <vector>

#include "core/ids.hpp"

namespace wsf::sched {

/// Complete record of one simulated execution (sequential or parallel).
///
/// The trace vectors (proc_orders, global_order, executed_by, stolen_nodes)
/// are filled only when SimOptions::record_trace is set (the default);
/// counter-only sweeps disable it to skip the per-node allocation traffic.
struct SimResult {
  /// Per-processor node sequences, in the order each processor executed
  /// them. Concatenated they cover every node exactly once.
  std::vector<std::vector<core::NodeId>> proc_orders;
  /// Nodes in global execution order (ties broken by processor index within
  /// a round).
  std::vector<core::NodeId> global_order;
  /// For each node, the processor that executed it.
  std::vector<core::ProcId> executed_by;

  /// Number of simulation rounds until completion. Rounds are round-robin
  /// over the processors and every counted round is a *full* round: each
  /// awake processor takes exactly one action (execute, pop, steal attempt,
  /// or declined attempt) per round, including in the final round — the one
  /// during which the last node executes — where trailing processors still
  /// take their (necessarily workless) turns. Hence steps, idle_steps,
  /// declined_steals, and steal_attempts are all measured over the same
  /// steps × procs processor-round grid.
  std::uint64_t steps = 0;
  /// Successful steals (a node moved from a victim's deque top to a thief).
  std::uint64_t steals = 0;
  /// The nodes that were stolen, in steal order — the roots of the
  /// deviation chains of Theorem 8's proof.
  std::vector<core::NodeId> stolen_nodes;
  /// All steal attempts aimed at an actual victim, including failures.
  /// steal_attempts == steals + failed_steals; the ABP-style attempt count
  /// Theorems 8/9 reason about.
  std::uint64_t steal_attempts = 0;
  std::uint64_t failed_steals = 0;
  /// Steal operations that claimed two or more nodes (steal-half batches,
  /// sized by core::steal_claim; a steal from a 2-node deque claims one
  /// node and is no batch), as the runtime's WorkerCounters::batch_steals.
  /// Zero under StealPolicy::One; never more than batch_stolen_items.
  std::uint64_t batch_steals = 0;
  /// Nodes claimed beyond the first across all batch steals; every steal's
  /// first node is counted in `steals`, so nodes moved between deques
  /// total steals + batch_stolen_items.
  std::uint64_t batch_stolen_items = 0;
  /// Processor-rounds spent asleep (the controller's awake() said no).
  std::uint64_t idle_steps = 0;
  /// Workless processor-rounds where the controller declined to pick a
  /// victim (pick_victim returned the thief itself / an invalid processor).
  /// Kept separate from both idle_steps and steal_attempts so declined
  /// rounds cannot masquerade as sleep or as real ABP attempts.
  std::uint64_t declined_steals = 0;

  /// Times a touch was checked (its local parent executed) before the fork
  /// that spawns its future thread had executed — the unstructured-futures
  /// hazard of Figure 3. Always zero for structured computations.
  std::uint64_t premature_touches = 0;

  /// Cache misses per processor (empty when cache simulation is off).
  std::vector<std::uint64_t> misses_per_proc;

  std::uint64_t total_misses() const {
    std::uint64_t s = 0;
    for (auto m : misses_per_proc) s += m;
    return s;
  }
};

}  // namespace wsf::sched
