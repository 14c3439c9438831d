#include "exp/sweep.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/deviation.hpp"
#include "sched/sequential.hpp"
#include "sched/simulator.hpp"
#include "support/check.hpp"

namespace wsf::exp {

SweepSpec smoke_spec() {
  SweepSpec spec;
  graphs::RegistryParams params;
  params.size = 4;
  params.size2 = 3;
  for (const char* family : {"fig2", "fig4"})
    spec.graphs.push_back({family, params, {}});
  spec.procs = {1, 2, 4, 8, 16};
  spec.policies = {core::ForkPolicy::FutureFirst,
                   core::ForkPolicy::ParentFirst};
  spec.touch_enables = {sched::TouchEnable::TouchFirst,
                        sched::TouchEnable::ContinuationFirst};
  spec.cache_lines = {0, 4, 8};
  spec.seeds = 2;
  return spec;
}

std::vector<GraphAxis> flatten_graph_axes(const SweepSpec& spec) {
  std::vector<GraphAxis> flat;
  for (const GraphAxis& axis : spec.graphs) {
    if (axis.sizes.empty()) {
      flat.push_back({axis.family, axis.params, {}});
      continue;
    }
    for (const std::uint32_t size : axis.sizes) {
      GraphAxis single{axis.family, axis.params, {}};
      single.params.size = size;
      flat.push_back(std::move(single));
    }
  }
  return flat;
}

std::vector<SweepConfig> expand_spec(const SweepSpec& spec) {
  WSF_REQUIRE(!spec.graphs.empty(), "sweep needs at least one graph axis");
  WSF_REQUIRE(!spec.backends.empty(),
              "sweep needs at least one execution backend");
  WSF_REQUIRE(!spec.procs.empty(), "sweep needs at least one P value");
  WSF_REQUIRE(!spec.policies.empty(), "sweep needs at least one fork policy");
  WSF_REQUIRE(!spec.touch_enables.empty(),
              "sweep needs at least one touch-enable rule");
  WSF_REQUIRE(!spec.cache_lines.empty(),
              "sweep needs at least one cache geometry (0 = no cache)");
  WSF_REQUIRE(!spec.layouts.empty(),
              "sweep needs at least one node layout order");
  WSF_REQUIRE(!spec.steal_policies.empty(),
              "sweep needs at least one steal policy");
  WSF_REQUIRE(!spec.victim_policies.empty(),
              "sweep needs at least one victim policy");
  WSF_REQUIRE(spec.seeds >= 1, "sweep needs at least one seed replicate");

  const std::vector<GraphAxis> axes = flatten_graph_axes(spec);
  std::vector<SweepConfig> configs;
  configs.reserve(spec.backends.size() * axes.size() *
                  spec.cache_lines.size() * spec.layouts.size() *
                  spec.procs.size() * spec.policies.size() *
                  spec.touch_enables.size() * spec.steal_policies.size() *
                  spec.victim_policies.size());
  for (const BackendKind backend : spec.backends) {
    for (std::size_t gi = 0; gi < axes.size(); ++gi) {
      for (std::size_t ci = 0; ci < spec.cache_lines.size(); ++ci) {
        for (std::size_t li = 0; li < spec.layouts.size(); ++li) {
          for (const std::uint32_t procs : spec.procs) {
            for (const core::ForkPolicy policy : spec.policies) {
              for (const sched::TouchEnable touch : spec.touch_enables) {
                for (const core::StealPolicy steal : spec.steal_policies) {
                  for (const core::VictimPolicy victim :
                       spec.victim_policies) {
                    SweepConfig cfg;
                    cfg.family = axes[gi].family;
                    cfg.params = axes[gi].params;
                    cfg.params.cache_lines = spec.cache_lines[ci];
                    // Both backends of one grid point replay one shared
                    // graph (generate_graphs order: axes × cache_lines ×
                    // layouts; the steal axes reuse it untouched).
                    cfg.graph_index =
                        (gi * spec.cache_lines.size() + ci) *
                            spec.layouts.size() +
                        li;
                    cfg.backend = backend;
                    cfg.layout = spec.layouts[li];
                    cfg.options.procs = procs;
                    cfg.options.policy = policy;
                    cfg.options.touch_enable = touch;
                    cfg.options.steal_policy = steal;
                    cfg.options.victim_policy = victim;
                    cfg.options.cache_lines = spec.cache_lines[ci];
                    cfg.options.cache_policy = spec.cache_policy;
                    cfg.options.stall_prob = spec.stall_prob;
                    cfg.options.seed = spec.seed_base;
                    cfg.options.max_steps = spec.max_steps;
                    configs.push_back(cfg);
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return configs;
}

std::vector<graphs::GeneratedDag> generate_graphs(const SweepSpec& spec) {
  const std::vector<GraphAxis> axes = flatten_graph_axes(spec);
  std::vector<graphs::GeneratedDag> out;
  out.reserve(axes.size() * spec.cache_lines.size() * spec.layouts.size());
  for (const GraphAxis& axis : axes) {
    for (const std::size_t lines : spec.cache_lines) {
      graphs::RegistryParams params = axis.params;
      params.cache_lines = lines;
      const graphs::GeneratedDag base = graphs::make_named(axis.family,
                                                           params);
      for (const core::NodeOrderKind kind : spec.layouts) {
        if (kind == core::NodeOrderKind::Construction) {
          out.push_back(base);
          continue;
        }
        // Same DAG, nodes renumbered into the layout order; the random
        // order is seeded from the axis seed so the grid stays
        // reproducible from the spec alone.
        const core::NodeOrder order =
            sched::make_node_order(base.graph, kind, axis.params.seed);
        graphs::GeneratedDag variant = base;
        variant.graph = core::relabeled_graph(base.graph, order.new_id_of);
        variant.name = base.name + "@" + core::to_string(kind);
        out.push_back(std::move(variant));
      }
    }
  }
  return out;
}

SweepCell run_replicates(const core::Graph& g, sched::SimOptions opts,
                         std::uint64_t seed_base, std::uint64_t seed_count) {
  WSF_REQUIRE(seed_count >= 1, "need at least one replicate");
  SweepCell cell;
  opts.record_trace = true;  // deviation counting needs proc_orders
  opts.seed = seed_base;
  // The whole replicate batch runs through one simulator arena and one
  // deviation counter: reset(seed) rewinds the simulator in place,
  // run_in_place() recycles the result's trace vectors, and the counter
  // keeps its predecessor/flag tables — so a steady-state replicate pays
  // no per-seed allocation at all (simulator state, result vectors, or
  // deviation report).
  sched::Simulator sim(g, opts);
  // The DAG stats and the sequential baseline are seed-independent, so they
  // are computed once per cell instead of once per replicate the way a
  // per-seed run_experiment() loop would; each replicate then runs only the
  // parallel simulation and the deviation comparison. Cell values are
  // identical to run_experiment()'s by construction (the baseline reads
  // neither the seed nor record_trace).
  cell.stats = core::compute_stats(g);
  const sched::SeqResult seq = sched::run_sequential(g, opts);
  core::DeviationCounter dev_counter(g, seq.order);
  for (std::uint64_t k = 0; k < seed_count; ++k) {
    if (k > 0) sim.reset(seed_base + k);
    const sched::SimResult& par = sim.run_in_place();
    const core::DeviationReport& deviations =
        dev_counter.count(par.proc_orders);
    const auto additional_misses =
        static_cast<std::int64_t>(par.total_misses()) -
        static_cast<std::int64_t>(seq.misses);
    cell.deviations.add(static_cast<double>(deviations.deviations));
    cell.additional_misses.add(static_cast<double>(additional_misses));
    cell.seq_misses.add(static_cast<double>(seq.misses));
    cell.steals.add(static_cast<double>(par.steals));
    cell.declined_steals.add(static_cast<double>(par.declined_steals));
    cell.steps.add(static_cast<double>(par.steps));
    cell.premature_touches.add(static_cast<double>(par.premature_touches));
    cell.batch_stolen_items.add(static_cast<double>(par.batch_stolen_items));
  }
  return cell;
}

double stderr_of(const support::Accumulator& acc) {
  // One sample has no spread estimate; reporting 0 would be false
  // precision, so the cell is marked missing (NaN renders as "—"/blank).
  if (acc.count() < 2) return std::numeric_limits<double>::quiet_NaN();
  return acc.stddev() / std::sqrt(static_cast<double>(acc.count()));
}

std::vector<std::string> sweep_table_headers() {
  return {"backend", "family", "size", "size2", "nodes", "span", "touches",
          "procs", "policy", "touch_enable", "cache_lines", "layout",
          "steal", "victim", "replicates",
          "mean_deviations", "stderr_deviations", "mean_additional_misses",
          "stderr_additional_misses", "mean_seq_misses", "mean_steals",
          "stderr_steals", "mean_steps", "mean_declined_steals",
          "mean_premature_touches", "mean_parked_touches",
          "mean_fiber_switches", "mean_migrations", "mean_wall_us",
          "mean_batch_stolen_items"};
}

void add_sweep_row(support::Table& table, const SweepConfig& c,
                   const SweepCell& cell) {
  // A measure the configuration's backend never produced (count 0) is a
  // missing cell, not a fake 0 — NaN renders as "—"/blank/null.
  const auto mean_or_missing = [](const support::Accumulator& acc) {
    return acc.count() ? acc.mean()
                       : std::numeric_limits<double>::quiet_NaN();
  };
  table.row()
      .add(to_string(c.backend))
      .add(c.family)
      .add(static_cast<std::uint64_t>(c.params.size))
      .add(static_cast<std::uint64_t>(c.params.size2))
      .add(static_cast<std::uint64_t>(cell.stats.nodes))
      .add(static_cast<std::uint64_t>(cell.stats.span))
      .add(static_cast<std::uint64_t>(cell.stats.touches))
      .add(static_cast<std::uint64_t>(c.options.procs))
      .add(to_string(c.options.policy))
      .add(to_string(c.options.touch_enable))
      .add(static_cast<std::uint64_t>(c.options.cache_lines))
      .add(core::to_string(c.layout))
      .add(core::to_string(c.options.steal_policy))
      .add(core::to_string(c.options.victim_policy))
      .add(static_cast<std::uint64_t>(cell.deviations.count()))
      .add(cell.deviations.mean())
      .add(stderr_of(cell.deviations))
      .add(mean_or_missing(cell.additional_misses))
      .add(stderr_of(cell.additional_misses))
      .add(mean_or_missing(cell.seq_misses))
      .add(cell.steals.mean())
      .add(stderr_of(cell.steals))
      .add(mean_or_missing(cell.steps))
      .add(mean_or_missing(cell.declined_steals))
      .add(mean_or_missing(cell.premature_touches))
      .add(mean_or_missing(cell.parked_touches))
      .add(mean_or_missing(cell.fiber_switches))
      .add(mean_or_missing(cell.migrations))
      .add(mean_or_missing(cell.wall_us))
      .add(mean_or_missing(cell.batch_stolen_items));
}

std::vector<std::string> sweep_row_cells(const SweepConfig& c,
                                         const SweepCell& cell) {
  support::Table scratch(sweep_table_headers());
  add_sweep_row(scratch, c, cell);
  return scratch.rows().front();
}

support::Table to_table(const SweepResult& result) {
  support::Table table(sweep_table_headers());
  for (const SweepRow& row : result.rows) {
    // Sharded / resumed runs leave non-owned configs with an empty cell.
    if (row.cell.deviations.count() == 0) continue;
    add_sweep_row(table, row.config, row.cell);
  }
  return table;
}

}  // namespace wsf::exp
