// fib: one large DAG of near-empty tasks. fib(26) with spawn/touch and
// cutoff n < 2 is about 2·10^5 spawns in a single job, so nearly all of
// its time is the spawn path, the fiber switch, the deque and work-item
// allocation; the inbox, replay and simulator layers do almost nothing.
#include <cmath>

#include "closed.hpp"
#include "runtime/future.hpp"

namespace rt = wsf::runtime;

namespace wsf_bench {

namespace {

long fib_par(int n) {
  if (n < 2) return n;
  auto f = rt::spawn([n] { return fib_par(n - 1); });
  const long b = fib_par(n - 2);
  return f.touch() + b;
}

long fib_seq(int n) { return n < 2 ? n : fib_seq(n - 1) + fib_seq(n - 2); }

/// Binet's formula, exact in double precision far beyond the n used here.
long fib_closed_form(int n) {
  const double phi = (1 + std::sqrt(5.0)) / 2;
  return std::lround(std::pow(phi, n) / std::sqrt(5.0));
}

}  // namespace

void run_fib(const Options& opts, Report& report, Tracer* tracer) {
  // Read through a volatile so the compiler cannot fold the recursion.
  volatile int n_source = opts.smoke ? 16 : 26;
  const int n = n_source;
  const long expected = fib_closed_form(n);
  ClosedWorkload w;
  w.min_runs = opts.smoke ? 5 : 100;
  w.setup = [&] {
    w.sched.reset();
    w.sched = std::make_unique<rt::Scheduler>(
        rt::RuntimeOptions{.workers = kWorkers, .seed = opts.seed});
    for (int i = 0; i < 3; ++i)
      report.check(w.sched->run([n] { return fib_par(n); }) == expected,
                   "warmup fib result");
  };
  w.prepare = [] {};
  w.body = [n] { return fib_par(n); };
  w.check = [expected](long r) { return r == expected; };
  w.sequential = [n, expected, &report] {
    report.check(fib_seq(n) == expected, "sequential fib result");
  };
  report.note("fib(" + std::to_string(n) + ") = " + std::to_string(expected));
  run_closed(opts, report, tracer, w);
}

}  // namespace wsf_bench
