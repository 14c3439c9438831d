// Allocation accounting for the spawn path: once a worker's fiber stacks
// and deque are warm, a spawn makes exactly one heap allocation (its task
// block: work item, future state and closure), and small closures wrap into
// MoveOnlyFunction without allocating. Global operator new is replaced with
// a counting shim, so this suite lives in its own binary.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "runtime/pool.hpp"
#include "support/check.hpp"
#include "support/move_only_function.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

std::size_t allocations() {
  // relaxed: the counts are read on the thread that made the allocations
  // under test (one worker; the submitter only waits).
  return g_allocations.load(std::memory_order_relaxed);
}

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

namespace wsf::runtime {
namespace {

using core::ForkPolicy;

class SpawnAlloc : public ::testing::TestWithParam<ForkPolicy> {};

INSTANTIATE_TEST_SUITE_P(Policies, SpawnAlloc,
                         ::testing::Values(ForkPolicy::FutureFirst,
                                           ForkPolicy::ParentFirst),
                         [](const auto& info) {
                           return info.param == ForkPolicy::FutureFirst
                                      ? "FutureFirst"
                                      : "ParentFirst";
                         });

TEST_P(SpawnAlloc, OneAllocationPerSpawnOnAWarmWorker) {
  constexpr int kWarmup = 1000;
  constexpr int kSpawns = 10000;
  Scheduler sched({.workers = 1, .policy = GetParam()});
  const std::size_t counted = sched.run([] {
    std::int64_t sum = 0;
    for (int i = 0; i < kWarmup; ++i) sum += spawn([i] { return i; }).touch();
    const std::size_t before = allocations();
    for (int i = 0; i < kSpawns; ++i) sum += spawn([i] { return i; }).touch();
    const std::size_t made = allocations() - before;
    WSF_CHECK(sum == std::int64_t{kWarmup} * (kWarmup - 1) / 2 +
                         std::int64_t{kSpawns} * (kSpawns - 1) / 2,
              "spawn/touch returned wrong values");
    return made;
  });
  EXPECT_EQ(counted, static_cast<std::size_t>(kSpawns));
}

TEST(SpawnAlloc, SmallClosuresWrapWithoutAllocating) {
  using Fn = support::MoveOnlyFunction<std::uint64_t()>;
  const std::uint64_t word = 7;
  const std::size_t before_small = allocations();
  Fn small = [word] { return word; };  // 8 bytes: inline
  const std::size_t small_allocs = allocations() - before_small;
  EXPECT_EQ(small_allocs, 0u);
  EXPECT_EQ(small(), 7u);

  const std::array<std::uint64_t, 8> words{1, 2, 3, 4, 5, 6, 7, 8};
  const std::size_t before_large = allocations();
  Fn large = [words] { return words[7]; };  // 64 bytes: on the heap
  const std::size_t large_allocs = allocations() - before_large;
  EXPECT_EQ(large_allocs, 1u);
  EXPECT_EQ(large(), 8u);
}

}  // namespace
}  // namespace wsf::runtime
