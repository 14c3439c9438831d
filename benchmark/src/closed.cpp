#include "closed.hpp"

#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace rt = wsf::runtime;

namespace wsf_bench {

namespace {

struct Window {
  std::vector<double> run_ms;
  double busy_ns = 0;
  std::uint64_t failed = 0;
  rt::WorkerCounters delta;
};

Window measure(ClosedWorkload& w, double seconds, std::size_t min_runs,
               Tracer* tracer) {
  Window out;
  ScopedSpan phase(tracer, "phase.measure");
  const rt::WorkerCounters before = w.sched->counters().total();
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < end || out.run_ms.size() < min_runs) {
    w.prepare();
    long result = 0;
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    {
      ScopedSpan span(tracer, "run", phase.id());
      t0 = now_ns();
      result = w.sched->run(w.body);
      t1 = now_ns();
    }
    out.run_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    out.busy_ns += static_cast<double>(t1 - t0);
    if (!w.check(result)) ++out.failed;
  }
  out.delta = rt::counters_since(w.sched->counters().total(), before);
  return out;
}

}  // namespace

void run_closed(const Options& opts, Report& report, Tracer* tracer,
                ClosedWorkload& w) {
  report.metric("setup_s", timed_setup(w.setup), "s");
  const double window_s = tracer ? opts.seconds / 2 : opts.seconds;

  const Window u =
      measure(w, window_s, tracer ? 1 : w.min_runs, nullptr);
  const std::size_t runs = u.run_ms.size();
  report.ops(runs, u.failed);
  const double p50 = median(u.run_ms);
  const double p90 = percentile(u.run_ms, 0.9);
  report.metric("op_p50_ms", p50, "ms");
  report.metric("op_tail_ms", p90, "ms");
  report.metric("ops_per_s", static_cast<double>(runs) / (u.busy_ns / 1e9),
                "1/s");
  report.metric("run_p50_ms", p50, "ms");
  report.metric("run_p90_ms", p90, "ms");
  report.note(std::to_string(runs) + " timed runs; p90 has " +
              std::to_string(samples_above(runs, 0.9)) + " runs above it" +
              (tail_supported(runs, 0.9) ? "" : " (fewer than 10)"));
  if (!tracer) return;

  add_runtime_counts(report, u.delta, static_cast<double>(runs));
  const std::uint64_t layers = tracer->open();
  const std::int64_t layers_start = now_ns();
  const UnitCosts costs = measure_unit_costs(opts, *tracer, layers);
  std::vector<double> seq_ms;
  {
    ScopedSpan span(tracer, "layers.sequential", layers);
    for (int rep = 0; rep < 3; ++rep) {
      w.prepare();
      const std::int64_t t0 = now_ns();
      w.sequential();
      seq_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
  }
  tracer->close(layers, "phase.layers", layers_start, now_ns());
  add_unit_costs(report, costs);
  const double seq = median(seq_ms);
  report.metric("seq_ms", seq, "ms");

  const Window t = measure(w, window_s, 1, tracer);
  report.ops(t.run_ms.size(), t.failed);
  report.metric("trace.overhead_frac", median(t.run_ms) / p50 - 1, "ratio");
  add_budget(report, u.busy_ns,
             {{"spawn+touch", static_cast<double>(u.delta.spawns) *
                                  costs.spawn_touch_ns},
              {"steal", static_cast<double>(u.delta.steals) *
                            costs.deque_steal_ns},
              {"sequential", static_cast<double>(runs) * seq * 1e6}});
}

}  // namespace wsf_bench
