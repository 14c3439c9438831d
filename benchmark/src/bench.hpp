// Shared pieces of wsf-bench: options, the metric report, the set-up timer
// and the workload entry points.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/counters.hpp"

namespace wsf_bench {

class Tracer;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64 step: the benchmark's only source of seeded inputs.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Worker threads of every runtime workload; the client thread makes four,
/// the machine's core count.
inline constexpr std::uint32_t kWorkers = 3;
/// Set-up is repeated this many times per run and its median reported, so
/// work moved into set-up shows in setup_s.
inline constexpr int kSetupRepeats = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measured time of the run. A traced run splits it between an untraced
  /// and a traced window.
  double seconds = 20;
  /// About 1% of every size, for the ctest smoke tests.
  bool smoke = false;
  /// Chrome trace output; empty = untraced run.
  std::string trace_path;
};

/// Every metric the run measured, the operation tally and the correctness
/// verdict. The last line of stdout is json().
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Operations attempted and failed (wrong result, rejected, shed,
  /// abandoned). failed/attempted is fail_frac.
  void ops(std::uint64_t attempted, std::uint64_t failed);
  /// A correctness check that is not tied to one operation (books that do
  /// not balance, a generator that fell behind). Failing marks the run
  /// incorrect.
  void check(bool ok, const std::string& what);
  /// A line of explanation printed with the report (budget terms, self
  /// times).
  void note(const std::string& line);

  bool correct() const {
    return errors_.empty() && failed_ == 0 && attempted_ > 0;
  }
  double fail_frac() const {
    return attempted_ == 0 ? 1
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }
  std::string json() const;
  std::string text() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Runs `setup` kSetupRepeats times and returns the median duration in
/// seconds. `setup` must leave the workload ready to measure each time.
double timed_setup(const std::function<void()>& setup);

/// Adds the runtime layer counts of one measured window, per operation.
void add_runtime_counts(Report& report,
                        const wsf::runtime::WorkerCounters& delta,
                        double ops);

/// Peak resident set of the process, MB.
double peak_rss_mb();

/// Per-operation costs of the library's layers, timed in isolation
/// (the traced run's unit-cost phase).
struct UnitCosts {
  double spawn_touch_ns = 0;
  double deque_push_pop_ns = 0;
  double deque_steal_ns = 0;
  double deque_steal_batch_item_ns = 0;
  double idle_wake_us = 0;
  double replay_node_ns = 0;
  double sim_round_ns = 0;
  double cache_access_ns = 0;
  double deviation_node_ns = 0;
};

UnitCosts measure_unit_costs(const Options& opts, Tracer& tracer,
                             std::uint64_t parent);
void add_unit_costs(Report& report, const UnitCosts& costs);

/// Adds budget.unexplained_frac = 1 − explained / (workers × wall) and
/// notes every term, in ms.
void add_budget(Report& report, double wall_ns,
                const std::vector<std::pair<std::string, double>>& terms_ns);

void run_fib(const Options& opts, Report& report, Tracer* tracer);
void run_sort(const Options& opts, Report& report, Tracer* tracer);
void run_stream(const Options& opts, Report& report, Tracer* tracer);
void run_sweep(const Options& opts, Report& report, Tracer* tracer);

}  // namespace wsf_bench
