// P-processor parsimonious work-stealing simulator (Section 3 of the paper).
//
// Execution model (Arora–Blumofe–Plaxton enabling semantics, which the
// paper's proofs use):
//   * executing a node decrements the pending count of its successors; a
//     successor whose last predecessor just executed is *enabled*;
//   * with one enabled child, the processor executes it next;
//   * with two enabled children, it executes one and pushes the other onto
//     the *bottom* of its deque — at forks the fork policy picks the child
//     (future-first vs parent-first, Section 5), at future parents the
//     touch-enable rule picks (options.hpp);
//   * with none, it pops the bottom of its own deque; if the deque is empty
//     it spends the round on one steal attempt from the *top* of a victim's
//     deque (the controller picks the victim).
//
// Rounds are round-robin over processors: each awake processor acts once per
// round. The simulator is deterministic given the graph, options, and
// controller, making every experiment exactly reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.hpp"
#include "core/graph.hpp"
#include "sched/controller.hpp"
#include "sched/options.hpp"
#include "sched/trace.hpp"
#include "support/ring_deque.hpp"

namespace wsf::sched {

class Simulator {
 public:
  /// Prepares a simulation of `g`. The controller may be null, in which
  /// case a RandomController(opts.seed, opts.stall_prob,
  /// opts.steal_nonempty_only) is used.
  Simulator(const core::Graph& g, const SimOptions& opts,
            ScheduleController* controller = nullptr);

  /// Runs the whole computation and returns the trace. Can be called once
  /// per construction/reset. Moves the result out of the simulator, so the
  /// trace buffers are *not* recycled by the next reset(); replicate loops
  /// that want full arena reuse should call run_in_place() instead.
  SimResult run();

  /// Runs the whole computation in place and returns a reference to the
  /// simulator-owned result, valid until the next reset()/run(). Together
  /// with reset(seed) this recycles the per-run trace vectors
  /// (proc_orders, global_order, executed_by, stolen_nodes,
  /// misses_per_proc) across seed replicates — the result-vector half of
  /// the sweep arena; run_replicates batches its replicates through this.
  const SimResult& run_in_place();

  /// Rewinds the simulator to its pre-run state with a new schedule seed,
  /// reusing the pending/executed/current/deque/cache allocations — the
  /// arena a sweep job recycles across seed replicates instead of paying
  /// O(nodes) construction per seed. run() after reset(s) produces exactly
  /// the result of a fresh Simulator(g, opts with seed s). Only available
  /// with the simulator-owned random controller (an external controller
  /// carries state the simulator cannot rewind).
  void reset(std::uint64_t seed);

  // ---- controller-facing const interface ----
  const core::Graph& graph() const { return g_; }
  std::uint32_t num_procs() const { return opts_.procs; }
  std::uint64_t round() const { return round_; }
  bool executed(core::NodeId v) const { return executed_[v] != 0; }
  /// The node a processor will execute next (kInvalidNode if idle).
  core::NodeId current(core::ProcId p) const { return current_[p]; }
  /// Deque contents, index 0 = top (steal end), back = bottom (owner end).
  const support::RingDeque<core::NodeId>& deque_of(core::ProcId p) const {
    return deques_[p];
  }
  bool deque_empty(core::ProcId p) const { return deques_[p].empty(); }
  /// Number of nodes executed so far.
  std::size_t executed_count() const { return executed_count_; }

 private:
  void execute(core::ProcId p, core::NodeId v);
  void try_steal(core::ProcId p);
  /// (Re)fills the run state in place: pending counts, executed marks,
  /// deque/cache contents, counters, and a fresh SimResult.
  void reset_state();

  const core::Graph& g_;
  SimOptions opts_;
  ScheduleController* controller_;
  std::unique_ptr<RandomController> owned_controller_;

  std::vector<std::uint32_t> pending_;
  std::vector<char> executed_;
  std::vector<core::NodeId> current_;
  std::vector<support::RingDeque<core::NodeId>> deques_;
  std::vector<std::unique_ptr<cache::CacheModel>> caches_;
  std::size_t executed_count_ = 0;
  std::uint64_t round_ = 0;
  bool ran_ = false;

  SimResult result_;
};

/// Convenience wrapper: simulate with the given options/controller.
SimResult simulate(const core::Graph& g, const SimOptions& opts,
                   ScheduleController* controller = nullptr);

}  // namespace wsf::sched
