// The unit-cost phase of a traced run: each layer's public operations timed
// in isolation, one span per layer. These costs, times the counts a
// workload records, make up the budget; whatever they do not cover is
// reported as budget.unexplained_frac.
//
// The fiber switch is not timed directly: runtime::Fiber's ucontext-based
// interface is what a hand-written context switch would replace, so its
// cost is measured through spawn.touch_ns and counted by fiber.resumes.
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "cache/cache.hpp"
#include "core/deviation.hpp"
#include "graphs/registry.hpp"
#include "runtime/chase_lev.hpp"
#include "runtime/pool.hpp"
#include "runtime/replay.hpp"
#include "sched/simulator.hpp"
#include "stats.hpp"
#include "support/check.hpp"
#include "trace.hpp"

namespace rt = wsf::runtime;

namespace wsf_bench {

namespace {

/// Runs `body` for `blocks` blocks of `per` operations each and
/// returns the median per-operation time in ns. `body` returns the ns it
/// timed (so untimed preparation can sit inside it).
template <typename Body>
double median_block_ns(int blocks, int per, Body body) {
  std::vector<double> ns;
  ns.reserve(static_cast<std::size_t>(blocks));
  for (int b = 0; b < blocks; ++b)
    ns.push_back(static_cast<double>(body()) / per);
  return median(ns);
}

double spawn_touch_ns(int blocks, int per, std::uint64_t seed) {
  rt::Scheduler one({.workers = 1, .seed = seed});
  return one.run([blocks, per] {
    long sink = 0;
    const double ns = median_block_ns(blocks, per, [&] {
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < per; ++i)
        sink += rt::spawn([i] { return i; }).touch();
      return now_ns() - t0;
    });
    WSF_CHECK(sink == static_cast<long>(blocks) * per * (per - 1) / 2,
              "spawn/touch returned wrong values");
    return ns;
  });
}

void measure_deques(int blocks, int per, UnitCosts& c) {
  rt::ChaseLevDeque<int*> dq;
  int token = 0;
  std::vector<int*> out;
  out.reserve(static_cast<std::size_t>(per));
  std::size_t got = 0;
  c.deque_push_pop_ns = median_block_ns(blocks, per, [&] {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < per; ++i) {
      dq.push_bottom(&token);
      got += dq.pop_bottom() != nullptr;
    }
    return now_ns() - t0;
  });
  c.deque_steal_ns = median_block_ns(blocks, per, [&] {
    for (int i = 0; i < per; ++i) dq.push_bottom(&token);
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < per; ++i) got += dq.steal_top() != nullptr;
    return now_ns() - t0;
  });
  c.deque_steal_batch_item_ns = median_block_ns(blocks, per, [&] {
    for (int i = 0; i < per; ++i) dq.push_bottom(&token);
    out.clear();
    const std::int64_t t0 = now_ns();
    while (out.size() < static_cast<std::size_t>(per))
      dq.steal_batch(out, static_cast<std::size_t>(per));
    const std::int64_t dt = now_ns() - t0;
    got += out.size();
    return dt;
  });
  WSF_CHECK(got == 3 * static_cast<std::size_t>(blocks) * per,
            "deque lost items in the unit-cost phase");
}

/// One job into a scheduler whose workers are all parked: submit to the
/// job's first instruction.
double idle_wake_us(int trials, std::uint64_t seed) {
  rt::Scheduler pool({.workers = kWorkers, .seed = seed});
  std::vector<double> us;
  for (int t = 0; t < trials; ++t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::atomic<std::int64_t> started{0};
    const std::int64_t t0 = now_ns();
    auto r = pool.try_submit([&started] {
      // relaxed: the job's completion (wait below) publishes the store.
      started.store(now_ns(), std::memory_order_relaxed);
    });
    WSF_CHECK(r.admitted(), "idle-wake job was not admitted");
    r.handle.wait();
    us.push_back(
        static_cast<double>(started.load(std::memory_order_relaxed) - t0) /
        1e3);
  }
  return median(us);
}

/// 1-worker replay of a fork-join tree of at least 10^5 nodes: service time
/// per node.
double replay_node_ns(bool smoke, std::uint64_t seed) {
  std::uint32_t depth = smoke ? 8 : 14;
  auto dag = wsf::graphs::make_named("forkjoin", {.size = depth, .size2 = 3});
  while (!smoke && dag.graph.num_nodes() < 100000)
    dag = wsf::graphs::make_named("forkjoin", {.size = ++depth, .size2 = 3});
  rt::Scheduler one({.workers = 1, .seed = seed});
  rt::GraphReplayer replayer(dag.graph);
  std::vector<double> ns;
  for (int rep = 0; rep < (smoke ? 2 : 5); ++rep) {
    const rt::ReplayResult r = replayer.run(one, {.job_counters = false});
    ns.push_back(static_cast<double>(r.service_us) * 1e3 /
                 static_cast<double>(dag.graph.num_nodes()));
  }
  return median(ns);
}

/// Simulator rounds (run_in_place time / SimResult::steps) and deviation
/// counting (DeviationCounter::count time / nodes) on a fib DAG at P = 4.
void measure_simulator(bool smoke, std::uint64_t seed, Tracer& tracer,
                       std::uint64_t parent, UnitCosts& c) {
  const auto dag =
      wsf::graphs::make_named("fib", {.size = smoke ? 12u : 18u});
  const auto& g = dag.graph;
  wsf::sched::SimOptions so;
  so.procs = 4;
  so.stall_prob = 0.2;
  so.cache_lines = 256;
  so.seed = seed;
  wsf::sched::Simulator sim(g, so);
  const int reps = smoke ? 2 : 20;
  {
    ScopedSpan span(&tracer, "layers.simulator", parent);
    std::int64_t sim_ns = 0;
    std::uint64_t steps = 0;
    for (int k = 0; k < reps; ++k) {
      if (k > 0) sim.reset(seed + static_cast<std::uint64_t>(k));
      const std::int64_t t0 = now_ns();
      steps += sim.run_in_place().steps;
      sim_ns += now_ns() - t0;
    }
    c.sim_round_ns = static_cast<double>(sim_ns) / static_cast<double>(steps);
  }

  ScopedSpan span(&tracer, "layers.deviation", parent);
  wsf::sched::SimOptions seq_opts;  // P = 1: the sequential order
  wsf::sched::Simulator seq(g, seq_opts);
  const std::vector<wsf::core::NodeId> seq_order =
      seq.run_in_place().global_order;
  sim.reset(seed);
  const auto proc_orders = sim.run_in_place().proc_orders;
  wsf::core::DeviationCounter counter(g, seq_order);
  const std::size_t expected = counter.count(proc_orders).deviations;
  bool same = true;
  const std::int64_t t0 = now_ns();
  for (int k = 0; k < reps; ++k)
    same &= counter.count(proc_orders).deviations == expected;
  c.deviation_node_ns = static_cast<double>(now_ns() - t0) /
                        (reps * static_cast<double>(g.num_nodes()));
  WSF_CHECK(same, "deviation count changed between identical counts");
}

/// Fully associative LRU of 256 lines on a seeded stream over 512 blocks
/// (about half the accesses hit).
double cache_access_ns(int blocks, int per, std::uint64_t seed) {
  const auto cache = wsf::cache::make_lru(256);
  std::vector<wsf::core::BlockId> stream(4096);
  for (auto& b : stream)
    b = static_cast<wsf::core::BlockId>(splitmix64(seed) % 512);
  std::uint64_t misses = 0;
  std::size_t pos = 0;
  const double ns = median_block_ns(blocks, per, [&] {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < per; ++i)
      misses += cache->access(stream[pos++ & (stream.size() - 1)]);
    return now_ns() - t0;
  });
  WSF_CHECK(misses == cache->misses(), "cache miss count disagrees");
  return ns;
}

}  // namespace

UnitCosts measure_unit_costs(const Options& opts, Tracer& tracer,
                             std::uint64_t parent) {
  const bool smoke = opts.smoke;
  const int blocks = smoke ? 20 : 1000;
  constexpr int kPer = 1000;
  UnitCosts c;
  {
    ScopedSpan span(&tracer, "layers.spawn_touch", parent);
    c.spawn_touch_ns = spawn_touch_ns(blocks, kPer, opts.seed);
  }
  {
    ScopedSpan span(&tracer, "layers.chase_lev", parent);
    measure_deques(blocks, kPer, c);
  }
  {
    ScopedSpan span(&tracer, "layers.idle_wake", parent);
    c.idle_wake_us = idle_wake_us(smoke ? 5 : 50, opts.seed);
  }
  {
    ScopedSpan span(&tracer, "layers.replay", parent);
    c.replay_node_ns = replay_node_ns(smoke, opts.seed);
  }
  measure_simulator(smoke, opts.seed, tracer, parent, c);
  {
    ScopedSpan span(&tracer, "layers.cache", parent);
    c.cache_access_ns = cache_access_ns(blocks, kPer, opts.seed);
  }
  return c;
}

void add_unit_costs(Report& report, const UnitCosts& c) {
  report.metric("spawn.touch_ns", c.spawn_touch_ns, "ns");
  report.metric("deque.push_pop_ns", c.deque_push_pop_ns, "ns");
  report.metric("deque.steal_ns", c.deque_steal_ns, "ns");
  report.metric("deque.steal_batch_item_ns", c.deque_steal_batch_item_ns,
                "ns");
  report.metric("inbox.idle_wake_us", c.idle_wake_us, "us");
  report.metric("replay.node_ns", c.replay_node_ns, "ns");
  report.metric("sim.round_ns", c.sim_round_ns, "ns");
  report.metric("cache.access_ns", c.cache_access_ns, "ns");
  report.metric("deviation.node_ns", c.deviation_node_ns, "ns");
}

}  // namespace wsf_bench
