// Simulator quickstart: build a computation DAG with the builder API (or
// pick a named construction), classify it against the paper's definitions,
// run the sequential baseline and a work-stealing schedule, and report
// deviations / additional cache misses. Also exports Graphviz.
//
//   ./build/examples/sim_explorer --graph fig8 --size 3 --size2 8
//       --cache-lines 8 --procs 2 --policy parent-first --dot fig8.dot
#include <cstdio>
#include <fstream>

#include "core/classify.hpp"
#include "core/dot.hpp"
#include "graphs/registry.hpp"
#include "sched/harness.hpp"
#include "support/cli.hpp"

using namespace wsf;

int main(int argc, char** argv) {
  support::ArgParser args("sim_explorer — inspect and simulate DAGs");
  auto& name = args.add_string("graph", "fig4", "construction name");
  auto& size = args.add_int("size", 6, "primary size parameter");
  auto& size2 = args.add_int("size2", 4, "secondary size parameter");
  auto& cache = args.add_int("cache-lines", 8, "cache lines per processor");
  auto& procs = args.add_int("procs", 4, "simulated processors");
  auto& policy = args.add_string("policy", "future-first",
                                 "future-first | parent-first");
  auto& seed = args.add_int("seed", 1, "schedule seed");
  auto& stall = args.add_double("stall", 0.2, "stall probability");
  auto& dot = args.add_string("dot", "", "write Graphviz to this file");
  auto& show = args.add_bool("show-schedule", false,
                             "print per-processor execution sequences "
                             "(deviations marked with '*')");
  if (!args.parse(argc, argv)) return 0;
  // Parsed first, so an unknown name fails before any output.
  const core::ForkPolicy fork_policy =
      core::fork_policy_from_string(policy.value);

  graphs::RegistryParams params;
  params.size = static_cast<std::uint32_t>(size.value);
  params.size2 = static_cast<std::uint32_t>(size2.value);
  params.cache_lines = static_cast<std::size_t>(cache.value);
  params.seed = static_cast<std::uint64_t>(seed.value);
  const auto gen = graphs::make_named(name.value, params);
  std::printf("%s: %s\n", gen.name.c_str(), gen.notes.c_str());

  const auto stats = core::compute_stats(gen.graph);
  std::printf("nodes=%zu edges=%zu threads=%zu forks=%zu touches=%zu "
              "span=%u blocks=%zu\n",
              stats.nodes, stats.edges, stats.threads, stats.forks,
              stats.touches, stats.span, stats.distinct_blocks);

  const auto report = core::classify(gen.graph);
  std::printf("classification: structured=%d single-touch=%d local-touch=%d "
              "fork-join=%d def13=%d def17=%d\n",
              report.structured, report.single_touch, report.local_touch,
              report.fork_join, report.single_touch_super,
              report.local_touch_super);
  for (const auto& v : report.violations)
    std::printf("  violation: %s\n", v.c_str());

  sched::SimOptions opts;
  opts.procs = static_cast<std::uint32_t>(procs.value);
  opts.policy = fork_policy;
  opts.cache_lines = static_cast<std::size_t>(cache.value);
  opts.seed = static_cast<std::uint64_t>(seed.value);
  opts.stall_prob = stall.value;
  const auto r = sched::run_experiment(gen.graph, opts);
  std::printf("\n%u-processor %s schedule (seed %lld):\n",
              opts.procs, to_string(opts.policy),
              static_cast<long long>(seed.value));
  std::printf("  sequential misses : %llu\n",
              static_cast<unsigned long long>(r.seq.misses));
  std::printf("  parallel misses   : %llu\n",
              static_cast<unsigned long long>(r.par.total_misses()));
  std::printf("  additional misses : %lld\n",
              static_cast<long long>(r.additional_misses));
  std::printf("  deviations        : %zu (touch %zu, fork-child %zu, "
              "other %zu)\n",
              r.deviations.deviations, r.deviations.touch_deviations,
              r.deviations.fork_child_deviations,
              r.deviations.other_deviations);
  std::printf("  steals            : %llu   premature touches: %llu\n",
              static_cast<unsigned long long>(r.par.steals),
              static_cast<unsigned long long>(r.par.premature_touches));
  std::printf("  rounds            : %llu   (idle %llu, declined steals "
              "%llu)\n",
              static_cast<unsigned long long>(r.par.steps),
              static_cast<unsigned long long>(r.par.idle_steps),
              static_cast<unsigned long long>(r.par.declined_steals));

  if (show.value) {
    std::printf("\nschedule ('*' marks deviations):\n%s",
                sched::format_schedule(gen.graph, r.par, r.deviations)
                    .c_str());
  }

  if (!dot.value.empty()) {
    std::ofstream out(dot.value);
    out << core::to_dot(gen.graph);
    std::printf("wrote %s\n", dot.value.c_str());
  }
  return 0;
}
