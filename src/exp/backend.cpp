#include "exp/backend.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/deviation.hpp"
#include "core/policy.hpp"
#include "core/traversal.hpp"
#include "exp/sweep.hpp"
#include "runtime/pool.hpp"
#include "runtime/replay.hpp"
#include "sched/sequential.hpp"
#include "support/check.hpp"
#include "support/thread_safety.hpp"

namespace wsf::exp {

BackendKind backend_from_string(const std::string& s) {
  if (s == "sim" || s == "simulator") return BackendKind::Sim;
  if (s == "runtime" || s == "rt") return BackendKind::Runtime;
  WSF_REQUIRE(false, "unknown backend '" << s << "' (sim | runtime)");
  return BackendKind::Sim;
}

namespace {

class SimBackend final : public Backend {
 public:
  SweepCell run_config(const core::Graph& g, const SweepConfig& cfg,
                       std::uint64_t seed_base,
                       std::uint64_t seed_count) override {
    return run_replicates(g, cfg.options, seed_base, seed_count);
  }
};

class RuntimeBackend final : public Backend {
 public:
  // seed_base is unused: the runtime is not deterministic per seed (real
  // thread interleavings), and the shared scheduler's victim-selection
  // seed is fixed at acquisition.
  SweepCell run_config(const core::Graph& g, const SweepConfig& cfg,
                       std::uint64_t /*seed_base*/,
                       std::uint64_t seed_count) override {
    WSF_REQUIRE(seed_count >= 1, "need at least one replicate");
    ensure_scheduler(cfg.options.procs, cfg.options.policy,
                     cfg.options.steal_policy, cfg.options.victim_policy);

    SweepCell cell;
    cell.stats = core::compute_stats(g);
    // The deviation measure is defined against the same sequential baseline
    // as the simulator's (policy + touch-enable rule; seed-independent).
    const sched::SeqResult seq = sched::run_sequential(g, cfg.options);
    core::DeviationCounter dev_counter(g, seq.order);
    runtime::GraphReplayer replayer(g);
    runtime::ReplayOptions replay_opts;
    replay_opts.touch_enable = cfg.options.touch_enable;

    // Replicates reuse the scheduler (live workers, pooled fiber stacks)
    // and the replayer/deviation arenas; unlike the simulator the runtime
    // is not deterministic per seed — the spread across replicates is real
    // OS-scheduling variation, which is exactly what the sim-vs-runtime
    // comparison is after. The scheduler is a process-shared service; the
    // exclusive lease keeps other tenants (sweep threads measuring the
    // same pool shape) out of this cell's per-job counter deltas.
    support::LockGuard exclusive(lease_->exclusive());
    for (std::uint64_t k = 0; k < seed_count; ++k) {
      const runtime::ReplayResult r =
          replayer.run(lease_->scheduler(), replay_opts);
      const core::DeviationReport& deviations =
          dev_counter.count(replayer.worker_orders());
      const runtime::WorkerCounters total = r.counters.total();
      cell.deviations.add(static_cast<double>(deviations.deviations));
      cell.steals.add(static_cast<double>(total.steals));
      cell.batch_stolen_items.add(
          static_cast<double>(total.batch_stolen_items));
      cell.premature_touches.add(static_cast<double>(r.premature_touches));
      cell.parked_touches.add(static_cast<double>(total.parked_touches));
      cell.fiber_switches.add(static_cast<double>(total.fiber_resumes));
      cell.migrations.add(static_cast<double>(total.migrations));
      // Service time, not admission-to-completion: the sweep measures the
      // schedule's execution cost, and queue time under a busy shared
      // scheduler is admission noise, not locality. (Runtime rows are
      // non-deterministic, so this refinement breaks no golden tables.)
      cell.wall_us.add(static_cast<double>(r.service_us));
      // additional_misses / seq_misses / steps / declined_steals stay
      // empty: the runtime has no cache model or round grid, and its
      // steal-attempt count includes idle spinning, so deriving "declined"
      // attempts from it would be noise, not a measure.
    }
    return cell;
  }

 private:
  /// A lease on the process-shared long-lived scheduler for this pool
  /// shape. Every sweep thread measuring (workers, policy) submits to the
  /// same warm pool — live worker threads and pooled fiber stacks are
  /// shared instead of churned per Backend — and serializes its measured
  /// replicates through the lease's exclusive mutex so per-job counters
  /// stay isolated. Leases held by this Backend keep their schedulers
  /// alive for the sweep's duration; the last Backend to release drops
  /// them.
  void ensure_scheduler(std::uint32_t workers, core::ForkPolicy policy,
                        core::StealPolicy steal, core::VictimPolicy victim) {
    if (lease_ && workers == workers_ && policy == policy_ &&
        steal == steal_ && victim == victim_)
      return;
    runtime::RuntimeOptions opts;
    opts.workers = workers;
    opts.policy = policy;
    opts.steal = steal;
    opts.victim = victim;
    // Replay thread bodies are a flat loop (no user recursion), so a small
    // stack keeps many concurrently-live fibers cheap.
    opts.stack_bytes = 128 * 1024;
    lease_ = runtime::SharedScheduler::acquire(opts);
    if (std::find(held_.begin(), held_.end(), lease_) == held_.end())
      held_.push_back(lease_);
    workers_ = workers;
    policy_ = policy;
    steal_ = steal;
    victim_ = victim;
  }

  std::shared_ptr<runtime::SharedScheduler> lease_;
  /// Keeps every pool shape this Backend used alive until the Backend
  /// dies, so a grid alternating shapes does not restart schedulers.
  std::vector<std::shared_ptr<runtime::SharedScheduler>> held_;
  std::uint32_t workers_ = 0;
  core::ForkPolicy policy_ = core::ForkPolicy::FutureFirst;
  core::StealPolicy steal_ = core::StealPolicy::One;
  core::VictimPolicy victim_ = core::VictimPolicy::Uniform;
};

}  // namespace

std::unique_ptr<Backend> make_backend(BackendKind kind) {
  if (kind == BackendKind::Runtime)
    return std::make_unique<RuntimeBackend>();
  return std::make_unique<SimBackend>();
}

}  // namespace wsf::exp
