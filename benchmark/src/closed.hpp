// The closed loop shared by fib and sort: one client submits one job at a
// time through Scheduler::run and times each run's makespan.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "bench.hpp"
#include "runtime/pool.hpp"

namespace wsf_bench {

struct ClosedWorkload {
  /// Runs in the untraced window, whatever the time budget says: a p90
  /// needs 100.
  std::size_t min_runs = 1;
  /// Created by `setup`.
  std::unique_ptr<wsf::runtime::Scheduler> sched;
  /// (Re)creates the scheduler and the input, and warms up.
  std::function<void()> setup;
  /// Untimed, before each run (e.g. restoring the unsorted input).
  std::function<void()> prepare;
  /// The job: runs inside Scheduler::run, timed.
  std::function<long()> body;
  /// Untimed, after each run: is the job's result correct?
  std::function<bool(long)> check;
  /// The plain sequential run of the same input, for seq_ms.
  std::function<void()> sequential;
};

/// Set-up, the untraced window and, when `tracer` is set, the unit-cost
/// phase and the traced window.
void run_closed(const Options& opts, Report& report, Tracer* tracer,
                ClosedWorkload& w);

}  // namespace wsf_bench
