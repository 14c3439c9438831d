// sweep: the researcher's path — exp::run_sweep on the simulator backend
// with 3 threads: simulator rounds, the cache model and deviation counting,
// with no runtime at all. The result table is deterministic, so every
// iteration must reproduce it byte for byte, and for seeds with a golden
// file its hash must match benchmark/golden/.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "exp/sweep.hpp"
#include "stats.hpp"
#include "support/table.hpp"
#include "trace.hpp"

namespace exp = wsf::exp;

namespace wsf_bench {

namespace {

constexpr unsigned kSweepThreads = 3;

/// Graph sizes keep each simulation's working set to a few MB: in
/// interleaved runs, the larger grid (forkjoin 14, fib 22,
/// random-single-touch 4000) ranged over 45% in configurations per second
/// against 18% for this one.
exp::SweepSpec make_spec(const Options& opts) {
  exp::SweepSpec spec;
  const auto axis = [](const char* family, std::uint32_t size) {
    return exp::GraphAxis{family, {.size = size, .size2 = 16}, {}};
  };
  if (opts.smoke) {
    spec.graphs = {axis("fig4", 4), axis("forkjoin", 6), axis("fib", 12),
                   axis("pipeline", 8), axis("random-single-touch", 40)};
    spec.seeds = 2;
  } else {
    spec.graphs = {axis("fig4", 40), axis("forkjoin", 12), axis("fib", 20),
                   axis("pipeline", 64), axis("random-single-touch", 1000)};
    spec.seeds = 12;
  }
  spec.procs = {2, 4, 8, 16};
  spec.policies = {wsf::core::ForkPolicy::FutureFirst,
                   wsf::core::ForkPolicy::ParentFirst};
  spec.cache_lines = {0, 256};
  spec.seed_base = opts.seed;
  return spec;
}

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

struct Window {
  std::vector<double> iteration_ms;
  std::vector<double> configs_per_s;
  std::vector<double> config_ms;
  std::vector<double> tail_frac;
  double steps_per_iteration = 0;
  std::size_t configs = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Runs whole sweeps for at least `seconds` and `min_iterations`; every
/// table must equal `reference` (set from the first iteration if empty).
Window iterate(const exp::SweepSpec& spec, double seconds,
               std::size_t min_iterations, std::string& reference,
               Tracer* tracer) {
  Window w;
  ScopedSpan phase(tracer, "phase.measure");
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < end || w.iteration_ms.size() < min_iterations) {
    ScopedSpan iteration(tracer, "sweep.iteration", phase.id());
    std::vector<double> config_ms;
    std::map<std::thread::id, std::int64_t> last_row_ns;
    exp::SweepRunOptions run;
    run.threads = kSweepThreads;
    // on_row runs on the sweep thread right after each configuration,
    // serialized by run_sweep. A configuration started when its thread
    // finished the previous one, so the gap between a thread's rows times it
    // in ns; SweepRow::wall_ms (whole ms) bounds the first one, which would
    // otherwise include run_sweep's graph generation.
    run.on_row = [&](std::size_t, const exp::SweepRow& row) {
      const std::int64_t done = now_ns();
      const std::int64_t upper =
          done - (static_cast<std::int64_t>(row.wall_ms) + 1) * 1000000;
      const auto last =
          last_row_ns.try_emplace(std::this_thread::get_id(), upper).first;
      const std::int64_t start = std::max(last->second, upper);
      last->second = done;
      config_ms.push_back(static_cast<double>(done - start) / 1e6);
      if (tracer) tracer->record("sweep.config", start, done, iteration.id());
    };
    const std::int64_t t0 = now_ns();
    const exp::SweepResult result = exp::run_sweep(spec, run);
    const double ms = static_cast<double>(now_ns() - t0) / 1e6;
    const std::string table = exp::to_table(result).to_csv();
    if (reference.empty()) reference = table;
    w.configs = result.rows.size();
    w.attempted += w.configs;
    if (table != reference) w.failed += w.configs;
    double steps = 0;
    for (const exp::SweepRow& row : result.rows) steps += row.cell.steps.sum();
    w.steps_per_iteration = steps;
    w.iteration_ms.push_back(ms);
    w.configs_per_s.push_back(static_cast<double>(w.configs) / (ms / 1e3));
    w.tail_frac.push_back(
        *std::max_element(config_ms.begin(), config_ms.end()) / ms);
    w.config_ms.insert(w.config_ms.end(), config_ms.begin(), config_ms.end());
  }
  return w;
}

}  // namespace

void run_sweep(const Options& opts, Report& report, Tracer* tracer) {
  const exp::SweepSpec spec = make_spec(opts);
  double gen_ms = 0;
  report.metric("setup_s", timed_setup([&] {
                  ScopedSpan span(tracer, "graphs.generate");
                  const std::int64_t t0 = now_ns();
                  const auto graphs = exp::generate_graphs(spec);
                  gen_ms = static_cast<double>(now_ns() - t0) / 1e6;
                }),
                "s");
  const double window_s = tracer ? opts.seconds / 2 : opts.seconds;
  const std::size_t min_iterations = 3;

  std::string reference;
  const Window u = iterate(spec, window_s, min_iterations, reference, nullptr);
  report.ops(u.attempted, u.failed);
  const std::string hash = fnv1a_hex(reference);
  report.note("table_hash " + hash + " (" + std::to_string(u.configs) +
              " configs, " + std::to_string(u.iteration_ms.size()) +
              " iterations)");
  const std::string golden = std::string(WSF_BENCH_GOLDEN_DIR) + "/sweep" +
                             (opts.smoke ? "-smoke." : ".") +
                             std::to_string(opts.seed) + ".hash";
  std::ifstream golden_file(golden);
  std::string expected;
  if (golden_file >> expected)
    report.check(expected == hash, "sweep table hash " + hash +
                                       " matches " + golden + " (" +
                                       expected + ")");
  else
    report.check(opts.seed != 1, "golden file " + golden + " is readable");

  // The median is taken over whole grids. A run holds too few grids for a
  // tail percentile with ten samples above it, so the tail is that of the
  // configurations, each a unit of result. (The configurations' own median
  // falls in a gap between small and large families and does not repeat.)
  const double configs_per_s = median(u.configs_per_s);
  const double config_p90 = percentile(u.config_ms, 0.9);
  report.metric("op_p50_ms", median(u.iteration_ms), "ms");
  report.metric("op_tail_ms", config_p90, "ms");
  report.metric("ops_per_s", configs_per_s, "1/s");
  report.metric("configs_per_s", configs_per_s, "1/s");
  report.metric("config_p90_ms", config_p90, "ms");
  report.note(std::to_string(u.iteration_ms.size()) + " grids, " +
              std::to_string(u.config_ms.size()) +
              " configuration times; their p90 has " +
              std::to_string(samples_above(u.config_ms.size(), 0.9)) +
              " above it");
  if (!tracer) return;

  report.metric("graphs.gen_ms", gen_ms, "ms");
  report.metric("sim.steps", u.steps_per_iteration, "count");
  report.metric("sweep.config_ms_p50", median(u.config_ms), "ms");
  report.metric("sweep.config_ms_max",
                *std::max_element(u.config_ms.begin(), u.config_ms.end()),
                "ms");
  report.metric("sweep.tail_frac", median(u.tail_frac), "ratio");

  const std::uint64_t layers = tracer->open();
  const std::int64_t layers_start = now_ns();
  add_unit_costs(report, measure_unit_costs(opts, *tracer, layers));
  tracer->close(layers, "phase.layers", layers_start, now_ns());

  const Window t = iterate(spec, window_s, min_iterations, reference, tracer);
  report.ops(t.attempted, t.failed);
  report.metric("trace.overhead_frac",
                median(t.iteration_ms) / median(u.iteration_ms) - 1, "ratio");
}

}  // namespace wsf_bench
