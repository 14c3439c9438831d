// Allocation accounting for the Simulator reset/arena API: a counter-only
// replicate loop that reuses one simulator must allocate far less than one
// that constructs a simulator per seed. Global operator new is replaced
// with a counting shim, so this suite lives in its own binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/deviation.hpp"
#include "graphs/registry.hpp"
#include "sched/sequential.hpp"
#include "sched/simulator.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

// noinline throughout: inlined into each other's callers, the malloc/free
// pairs would look to GCC like mismatched allocations
// (-Wmismatched-new-delete).
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

__attribute__((noinline)) void* operator new(std::size_t size,
                                             std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;  // aligned_alloc rule
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}

__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::align_val_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t,
                                               std::align_val_t) noexcept {
  std::free(p);
}

namespace wsf {
namespace {

sched::SimOptions counter_only_options() {
  sched::SimOptions opts;
  opts.procs = 4;
  opts.stall_prob = 0.25;
  opts.record_trace = false;  // counters only: no per-node trace vectors
  return opts;
}

TEST(SimulatorReuse, ResetLoopAllocatesFarLessThanConstruction) {
  const auto gen = graphs::make_named("forkjoin", {.size = 7, .size2 = 4});
  const sched::SimOptions opts = counter_only_options();
  constexpr std::uint64_t kSeeds = 16;

  // Fresh-construction loop: pays pending/executed/current/deque
  // allocations per seed.
  std::uint64_t fresh_steals = 0;
  const std::size_t before_fresh =
      g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    sched::SimOptions per_seed = opts;
    per_seed.seed = seed;
    fresh_steals += sched::simulate(gen.graph, per_seed).steals;
  }
  const std::size_t fresh_allocs =
      g_allocations.load(std::memory_order_relaxed) - before_fresh;

  // Reused-arena loop: one construction, reset per seed.
  std::uint64_t warm_steals = 0;
  sched::SimOptions first = opts;
  first.seed = 1;
  sched::Simulator sim(gen.graph, first);
  const std::size_t before_warm =
      g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    if (seed != 1) sim.reset(seed);
    warm_steals += sim.run().steals;
  }
  const std::size_t warm_allocs =
      g_allocations.load(std::memory_order_relaxed) - before_warm;

  EXPECT_EQ(warm_steals, fresh_steals);  // reuse must not change results
  EXPECT_GT(fresh_allocs, 0u);
  // The arena loop re-allocates only the per-run result vectors (the
  // misses array moves out with each SimResult); everything sized by the
  // graph is recycled. Require a decisive gap, not a lucky margin.
  EXPECT_LT(warm_allocs * 4, fresh_allocs)
      << "warm=" << warm_allocs << " fresh=" << fresh_allocs;
}

TEST(SimulatorReuse, InPlaceBatchMatchesMovedOutResults) {
  // run_in_place() must produce exactly what run() produces; only the
  // ownership of the result buffers differs.
  const auto gen = graphs::make_named("forkjoin", {.size = 7, .size2 = 4});
  sched::SimOptions opts = counter_only_options();
  opts.record_trace = true;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    sched::SimOptions per_seed = opts;
    per_seed.seed = seed;
    const sched::SimResult moved = sched::simulate(gen.graph, per_seed);
    sched::Simulator sim(gen.graph, per_seed);
    const sched::SimResult& in_place = sim.run_in_place();
    EXPECT_EQ(in_place.steals, moved.steals);
    EXPECT_EQ(in_place.steps, moved.steps);
    EXPECT_EQ(in_place.global_order, moved.global_order);
    EXPECT_EQ(in_place.proc_orders, moved.proc_orders);
  }
}

TEST(SimulatorReuse, BatchedReplicateLoopIsAllocationFreeAtSteadyState) {
  // The run_replicates batch shape: one simulator arena + one deviation
  // counter, traces on (deviation counting needs proc_orders), results
  // read in place. After warm-up a replicate must allocate *nothing* —
  // simulator state, result vectors, and deviation report are all
  // recycled.
  const auto gen = graphs::make_named("forkjoin", {.size = 7, .size2 = 4});
  sched::SimOptions opts = counter_only_options();
  opts.record_trace = true;
  opts.seed = 1;
  const sched::SeqResult seq = sched::run_sequential(gen.graph, opts);
  sched::Simulator sim(gen.graph, opts);
  wsf::core::DeviationCounter counter(gen.graph, seq.order);
  std::uint64_t devs = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {  // warm-up replicates
    if (seed != 1) sim.reset(seed);
    devs += counter.count(sim.run_in_place().proc_orders).deviations;
  }
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  sim.reset(4);
  devs += counter.count(sim.run_in_place().proc_orders).deviations;
  const std::size_t per_replicate =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_LE(per_replicate, 2u)
      << "steady-state batched replicate allocated " << per_replicate
      << " times";
  EXPECT_GT(devs + 1, 0u);  // keep the loop observable
}

TEST(SimulatorReuse, ResetIsAllocationLightPerReplicate) {
  const auto gen = graphs::make_named("forkjoin", {.size = 7, .size2 = 4});
  sched::SimOptions opts = counter_only_options();
  opts.seed = 1;
  sched::Simulator sim(gen.graph, opts);
  (void)sim.run();
  // Warm up one reset+run so lazily grown buffers (deque rings) exist…
  sim.reset(2);
  (void)sim.run();
  // …then a steady-state replicate should cost O(procs) allocations (the
  // result's misses_per_proc), independent of the graph size.
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  sim.reset(3);
  (void)sim.run();
  const std::size_t per_replicate =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_LE(per_replicate, 8u) << "steady-state replicate allocated "
                               << per_replicate << " times";
}

}  // namespace
}  // namespace wsf
