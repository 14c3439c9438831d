// Pluggable execution backends for experiment sweeps.
//
// A sweep grid point ("configuration") can execute on either engine:
//   * SimBackend — the deterministic round-based ABP simulator
//     (sched::Simulator), with cache simulation: the paper's model, every
//     measure exactly reproducible from (spec, seed).
//   * RuntimeBackend — the real fiber-based Chase–Lev work-stealing
//     runtime (runtime::Scheduler + runtime::GraphReplayer): the same
//     core::Graph replayed with one future per spawned thread and real
//     parks/wakes per touch edge, measured through WorkerCounters and the
//     same core::count_deviations over recorded per-worker orders.
// Both emit the same SweepCell row shape; measures an engine cannot
// produce (cache misses on the runtime, fiber switches in the simulator)
// stay empty and render as missing cells. The `backend` identity column —
// covered by the checkpoint spec signature — keeps the two kinds of rows
// from ever merging silently.
//
// A Backend instance is not thread-safe: run_sweep creates one per worker
// thread. The RuntimeBackend does not own schedulers — it leases the
// process-shared long-lived runtime::SharedScheduler for each pool shape
// (workers × policy) and serializes its measured replicates through the
// lease's exclusive mutex, so N sweep threads share warm pools instead of
// churning one scheduler each.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/graph.hpp"

namespace wsf::exp {

struct SweepConfig;
struct SweepCell;

enum class BackendKind : std::uint8_t { Sim, Runtime };

inline const char* to_string(BackendKind k) {
  return k == BackendKind::Sim ? "sim" : "runtime";
}

BackendKind backend_from_string(const std::string& s);

/// One execution engine. run_config executes a configuration's seed
/// replicates (seeds seed_base … seed_base + seed_count - 1) and aggregates
/// them into the shared sweep row shape. Not thread-safe; create one
/// Backend per executing thread.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual SweepCell run_config(const core::Graph& g, const SweepConfig& cfg,
                               std::uint64_t seed_base,
                               std::uint64_t seed_count) = 0;
};

std::unique_ptr<Backend> make_backend(BackendKind kind);

}  // namespace wsf::exp
