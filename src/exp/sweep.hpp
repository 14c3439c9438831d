// Declarative experiment sweeps — the paper's result grids in one shot.
//
// Every figure/theorem table in the paper is a grid: deviations and
// additional cache misses swept over processors P, fork policy, touch rule,
// cache geometry, and graph family. A SweepSpec declares such a grid; the
// runner expands it into concrete configurations, executes each
// configuration's seed replicates as independent run_experiment() calls
// across std::thread workers, and aggregates the paper's measures with
// mean/stderr. The wsf-sweep CLI (tools/wsf_sweep.cpp) exposes the whole
// thing as one command, and the paper's claim presets (exp/presets.hpp)
// declare their series through the same types instead of hand-rolled loops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/layout.hpp"
#include "core/policy.hpp"
#include "core/traversal.hpp"
#include "exp/backend.hpp"
#include "graphs/generated.hpp"
#include "graphs/registry.hpp"
#include "sched/options.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace wsf::exp {

/// One graph-family entry of a sweep: the registry name plus its size
/// parameters. `params.cache_lines` is overwritten per grid point with the
/// swept cache geometry so block-annotated constructions are parameterized
/// by the same C as the simulated cache (exactly how the paper's figures
/// are stated).
struct GraphAxis {
  std::string family;
  graphs::RegistryParams params;
  /// Per-family primary-size axis: the entry expands into one grid point
  /// per listed size (each overriding `params.size`). Empty means the
  /// single size already in `params.size` — so families with different
  /// natural scales (chain length vs tree depth) can sweep different size
  /// lists in one spec.
  std::vector<std::uint32_t> sizes;
};

/// Declarative description of an experiment grid. The cartesian product
/// graphs × cache_lines × procs × policies × touch_enables is the
/// configuration list; each configuration is replicated `seeds` times with
/// schedule seeds seed_base, seed_base+1, … so any cell can be reproduced
/// by a single run_experiment() call with the same options and seed.
struct SweepSpec {
  std::vector<GraphAxis> graphs;
  /// Execution engines to run the grid on (exp/backend.hpp). The backend
  /// is the outermost expansion axis, so `{Sim, Runtime}` runs the whole
  /// grid on the simulator first and then again on the real work-stealing
  /// runtime, with a `backend` identity column telling the rows apart.
  std::vector<BackendKind> backends = {BackendKind::Sim};
  std::vector<std::uint32_t> procs = {1, 2, 4, 8};
  std::vector<core::ForkPolicy> policies = {core::ForkPolicy::FutureFirst};
  std::vector<sched::TouchEnable> touch_enables = {
      sched::TouchEnable::TouchFirst};
  std::vector<std::size_t> cache_lines = {0};
  /// Node memory-layout orders (core/layout.hpp): each grid point's graph
  /// is relabeled into the given order before anything runs, making layout
  /// an experimental axis — block ids and the cache simulation see the
  /// permuted node numbering while the schedule-structure measures
  /// (deviations, steals) are invariant under it (tests/test_layout.cpp).
  /// The `sequential` kind uses the default-policy 1-processor baseline
  /// order; `random` is seeded from each axis's params.seed.
  std::vector<core::NodeOrderKind> layouts = {
      core::NodeOrderKind::Construction};
  /// Steal-amount policies (core/policy.hpp): how much a thief claims per
  /// successful steal. Like `layouts`, an identity axis carried through
  /// checkpoints, resume validation, and the output table.
  std::vector<core::StealPolicy> steal_policies = {core::StealPolicy::One};
  /// Victim-selection policies: how a thief picks whom to rob.
  std::vector<core::VictimPolicy> victim_policies = {
      core::VictimPolicy::Uniform};
  std::string cache_policy = "lru";
  double stall_prob = 0.2;
  /// Replicates per configuration (random schedule seeds).
  std::uint64_t seeds = 4;
  std::uint64_t seed_base = 1;
  /// Per-replicate round budget (0 = the simulator's auto formula); a
  /// failing configuration surfaces as a CheckError instead of hanging the
  /// whole sweep.
  std::uint64_t max_steps = 0;
};

/// One grid point: the graph reference plus fully-resolved simulator
/// options. `options.seed` holds the spec's seed_base; replicates override
/// it with seed_base + k.
struct SweepConfig {
  std::string family;
  graphs::RegistryParams params;
  /// Index into the shared graph list (generate_graphs()); configurations
  /// differing only in backend / P / policy / touch rule share one
  /// generated graph.
  std::size_t graph_index = 0;
  /// Execution engine this configuration runs on.
  BackendKind backend = BackendKind::Sim;
  /// Node memory-layout order the referenced graph was relabeled into.
  core::NodeOrderKind layout = core::NodeOrderKind::Construction;
  sched::SimOptions options;
};

/// Aggregate of the seed replicates of one configuration. An accumulator a
/// backend never feeds (cache misses on the runtime, fiber switches in the
/// simulator) stays at count 0 and renders as a missing cell — the row
/// shape is shared, the measure coverage is per backend (see the README's
/// backend matrix).
struct SweepCell {
  core::DagStats stats;
  support::Accumulator deviations;
  support::Accumulator additional_misses;
  support::Accumulator seq_misses;
  support::Accumulator steals;
  support::Accumulator declined_steals;
  support::Accumulator steps;
  support::Accumulator premature_touches;
  /// Runtime-backend measures (runtime::WorkerCounters): touches that
  /// parked their consumer fiber, total fiber context switches,
  /// cross-worker continuation migrations, and wall time per replicate.
  support::Accumulator parked_touches;
  support::Accumulator fiber_switches;
  support::Accumulator migrations;
  support::Accumulator wall_us;
  /// Items claimed beyond the first across all steal-half batches (both
  /// backends feed it; identically zero under StealPolicy::One).
  support::Accumulator batch_stolen_items;
};

struct SweepRow {
  SweepConfig config;
  SweepCell cell;
  /// Wall-clock milliseconds this configuration's replicates took on the
  /// worker that ran them. Bookkeeping, not a measurement: it goes into
  /// checkpoint rows (so long grids can be cost-profiled and re-sharded)
  /// but never into the sweep result table, whose bytes must not depend
  /// on machine speed.
  std::uint64_t wall_ms = 0;
};

struct SweepResult {
  std::vector<SweepRow> rows;
  std::uint64_t seeds = 0;
  std::uint64_t seed_base = 1;
};

/// The fast deterministic CI grid behind `wsf-sweep --smoke`: tiny
/// fig2/fig4 graphs, full P × policy × touch × cache axes, 2 seeds. One
/// definition shared by the CLI and the golden-file test, so the checked-in
/// golden CSV is byte-exact against what CI runs.
SweepSpec smoke_spec();

/// Expands the spec into its configuration list (no graphs generated, no
/// simulation). Order: backends × graphs (each axis expanded over its size
/// list) × cache_lines × layouts × procs × policies × touch_enables ×
/// steal_policies × victim_policies, innermost last — the row order of
/// every emitter below. The steal axes don't affect graph generation, so
/// graph_index ignores them.
std::vector<SweepConfig> expand_spec(const SweepSpec& spec);

/// The spec's graph axes with per-family size lists flattened into one
/// single-size entry per (axis, size) pair, in spec order — the axis list
/// expand_spec() and generate_graphs() actually iterate.
std::vector<GraphAxis> flatten_graph_axes(const SweepSpec& spec);

/// Generates the shared graph list referenced by SweepConfig::graph_index:
/// one graph per (flattened graph axis, cache_lines, layout) triple, in
/// axis-major order. Non-construction layouts are relabelings of the same
/// base graph (core::relabeled_graph). Configurations differing only in
/// backend / P / policy / touch rule share one generated graph.
std::vector<graphs::GeneratedDag> generate_graphs(const SweepSpec& spec);

/// Runs `seed_count` replicate simulator experiments (seeds seed_base …
/// seed_base + seed_count - 1) of one configuration and aggregates them —
/// the SimBackend implementation. The simulator builds the call's one
/// core::GraphLayout, which the DAG stats and the sequential baseline also
/// read. The baseline is seed-independent, so it runs once per call and seq_misses
/// has zero variance by construction. The replicates are batched through
/// one simulator arena (Simulator::reset + run_in_place) and one
/// core::DeviationCounter, so a steady-state replicate re-allocates
/// neither simulator state nor result/report vectors (test_sim_reuse
/// asserts it). Nothing is cached across calls, so a sweep holds only the
/// layouts of the configurations it is running.
SweepCell run_replicates(const core::Graph& g, sched::SimOptions opts,
                         std::uint64_t seed_base, std::uint64_t seed_count);

/// Deterministic 1-of-n partition of the configuration list: shard k runs
/// the configs whose expand_spec() index i satisfies i % count == index
/// (round-robin, so families/sizes of very different cost spread evenly
/// across machines). The default {0, 1} is "everything".
struct SweepShard {
  std::uint32_t index = 0;
  std::uint32_t count = 1;
};

/// Execution knobs for run_sweep beyond the spec itself.
struct SweepRunOptions {
  /// Worker threads (0 = one per hardware thread).
  unsigned threads = 0;
  SweepShard shard;
  /// Configs (by expand_spec() index) to skip even though this shard owns
  /// them — how a resumed run avoids re-executing checkpointed configs.
  std::function<bool(std::size_t config_index)> skip;
  /// Called under a lock after each configuration's replicates finish, with
  /// the expand_spec() index and the finished row — the checkpoint writer
  /// and progress reporting hook. An exception thrown here cancels the
  /// sweep exactly like a failing configuration.
  std::function<void(std::size_t config_index, const SweepRow& row)> on_row;
};

/// Executes the sweep: every configuration's replicates run as one job,
/// jobs are distributed over std::thread workers. Result rows are indexed
/// by expand_spec() order regardless of worker scheduling, so the output
/// is deterministic. Rows skipped by sharding/resume keep their config but
/// an empty cell (deviations.count() == 0). The first failing job (or
/// on_row exception) cancels the remaining jobs promptly and is rethrown
/// once the workers drain.
SweepResult run_sweep(const SweepSpec& spec, const SweepRunOptions& opts);

/// run_sweep with a pre-expanded configuration list (must be
/// expand_spec(spec)'s output) — lets callers that already expanded the
/// grid (checkpoint resume validation) avoid expanding it twice.
SweepResult run_sweep_expanded(const SweepSpec& spec,
                               const std::vector<SweepConfig>& configs,
                               const SweepRunOptions& opts);

/// Convenience overload: run everything on `threads` workers.
SweepResult run_sweep(const SweepSpec& spec, unsigned threads = 0);

/// Standard error of the mean (stddev / sqrt(n)); NaN below two samples —
/// a single replicate has no spread estimate, and pretending "0" would
/// claim false precision. Table::add(double) renders the NaN as a missing
/// cell.
double stderr_of(const support::Accumulator& acc);

/// Column headers of the sweep result table, shared by to_table and the
/// checkpoint format.
std::vector<std::string> sweep_table_headers();

/// Appends one configuration's row to a sweep table — the single source of
/// truth for sweep-row formatting, so a checkpointed/merged CSV is
/// byte-identical to a single-run one.
void add_sweep_row(support::Table& table, const SweepConfig& config,
                   const SweepCell& cell);

/// The exact table cells add_sweep_row emits, as strings (the checkpoint
/// row format).
std::vector<std::string> sweep_row_cells(const SweepConfig& config,
                                         const SweepCell& cell);

/// Renders the sweep as a Table with mean and stderr columns for the
/// paper's measures; rows never executed (sharded/skipped configs) are
/// omitted. Use Table::to_string / to_csv / to_json for the output format.
support::Table to_table(const SweepResult& result);

}  // namespace wsf::exp
