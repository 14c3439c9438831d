// False-sharing audit of the runtime's per-worker state.
//
// The compile-time half verifies the memory layout the runtime relies on:
// the Chase–Lev deque's thief-shared indices, the per-worker counter
// blocks, the peer-locked fiber-stack list, the Worker object itself and
// the Fiber objects keep cross-thread traffic on their own cache lines
// (offsets asserted below and in runtime/chase_lev.hpp /
// runtime/counters.hpp). The run-time half is a stress test that hammers
// adjacent workers' counters while a monitoring thread snapshots them —
// under ThreadSanitizer (ctest label `runtime`, CI tsan job) this proves
// the single-writer relaxed-counter discipline is race-free even when
// neighbouring workers update as fast as they can.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "runtime/chase_lev.hpp"
#include "runtime/counters.hpp"
#include "runtime/pool.hpp"

namespace wsf::runtime {
namespace detail {

// Worker is not standard-layout (it holds a Scheduler&), so offsetof is
// conditionally-supported; GCC and Clang evaluate it for this layout and
// only emit -Winvalid-offsetof, which we suppress for the audit.
struct WorkerAudit {
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
  static constexpr std::size_t deque = offsetof(Worker, deque_);
  static constexpr std::size_t counters = offsetof(Worker, counters_);
  static constexpr std::size_t stacks_mutex = offsetof(Worker, stacks_mutex_);
  static constexpr std::size_t stacks_end =
      offsetof(Worker, free_stacks_) + sizeof(Worker::free_stacks_);
  static constexpr std::size_t owner_only = offsetof(Worker, last_victim_);
  static constexpr std::size_t scratch = offsetof(Worker, sched_ctx_);
#pragma GCC diagnostic pop
};

/// True when the byte ranges [a, a + a_bytes) and [b, b + b_bytes) touch no
/// common 64-byte line.
constexpr bool disjoint_lines(std::size_t a, std::size_t a_bytes,
                              std::size_t b, std::size_t b_bytes) {
  return (a + a_bytes - 1) / 64 < b / 64 || (b + b_bytes - 1) / 64 < a / 64;
}

// The deque (and with it its thief-CASed top_ index) starts on a cache
// line, so the cold header fields (sched_, id_, stack_bytes_) never bounce
// with steals.
static_assert(WorkerAudit::deque % 64 == 0,
              "Worker deque must start on a cache line");
static_assert(alignof(Worker) >= 64,
              "Worker must be allocated cache-line aligned");
// The counter block is line-aligned and occupies whole lines (asserted in
// counters.hpp), so snapshot readers never share a line with the owner-only
// rng_ above it or the suspend-protocol scratch below it.
static_assert(WorkerAudit::counters % 64 == 0,
              "Worker counters must start on a cache line");
static_assert(WorkerAudit::scratch / 64 >
                  (WorkerAudit::counters + sizeof(WorkerCounters) - 1) / 64,
              "suspend-protocol scratch must not share the counters' lines");
// Peers lock the fiber-stack list when their own list is empty, so the
// list (its mutex and the vector it guards) must not share a line with the
// thief-CASed deque, the snapshot-read counters, or the owner-only state
// after it.
constexpr std::size_t kStackListBytes =
    WorkerAudit::stacks_end - WorkerAudit::stacks_mutex;
static_assert(WorkerAudit::stacks_mutex % 64 == 0,
              "stack-list mutex must start on a cache line");
static_assert(disjoint_lines(WorkerAudit::stacks_mutex, kStackListBytes,
                             WorkerAudit::deque,
                             sizeof(ChaseLevDeque<Job*>)),
              "stack list must not share the deque's lines");
static_assert(disjoint_lines(WorkerAudit::stacks_mutex, kStackListBytes,
                             WorkerAudit::counters, sizeof(WorkerCounters)),
              "stack list must not share the counters' lines");
static_assert(WorkerAudit::owner_only / 64 >
                  (WorkerAudit::stacks_end - 1) / 64,
              "owner-only state must not share the stack list's lines");
// Inside the deque: each shared index on its own line (re-asserted here so
// the audit is complete in one file; primary asserts in chase_lev.hpp).
static_assert(ChaseLevAudit::top / 64 != ChaseLevAudit::bottom / 64);
static_assert(ChaseLevAudit::array / 64 != ChaseLevAudit::bottom / 64);
// Every switch writes the fibers it leaves and enters, and pooled fibers
// move between workers: each Fiber object owns whole lines.
static_assert(alignof(Fiber) == 64 && sizeof(Fiber) % 64 == 0,
              "Fiber objects must not share cache lines");

}  // namespace detail

namespace {

TEST(FalseSharingAudit, CompileTimeLayout) {
  // The static_asserts above are the real test; record the audited offsets
  // so a layout change shows up in the test log, not just a compile error.
  EXPECT_EQ(detail::WorkerAudit::deque % 64, 0u);
  EXPECT_EQ(detail::WorkerAudit::counters % 64, 0u);
  EXPECT_EQ(detail::WorkerAudit::stacks_mutex % 64, 0u);
  EXPECT_EQ(alignof(WorkerCounters), 64u);
  EXPECT_EQ(sizeof(WorkerCounters) % 64, 0u);
  EXPECT_EQ(ChaseLevAudit::top % 64, 0u);
  EXPECT_EQ(ChaseLevAudit::bottom % 64, 0u);
  EXPECT_EQ(ChaseLevAudit::array % 64, 0u);
}

// Adjacent workers increment their own counters as fast as possible while
// the main thread repeatedly snapshots all of them (the racy-by-design
// monitoring read). TSan verifies the relaxed single-writer discipline;
// the final quiescent snapshot must account for every increment exactly.
TEST(FalseSharingStress, AdjacentCounterUpdatesUnderSnapshots) {
  RuntimeOptions opts;
  opts.workers = 4;
  Scheduler sched(opts);
  sched.reset_counters();

  constexpr int kJobs = 64;
  constexpr std::uint64_t kSpinsPerJob = 2000;

  std::atomic<bool> stop{false};
  std::thread monitor([&] {
    std::uint64_t sink = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const CountersReport snap = sched.counters();
      sink += snap.total().touches;  // consume so the reads are not elided
      std::this_thread::yield();
    }
    ASSERT_GE(sink, 0u);
  });

  std::vector<JobHandle<void>> handles;
  handles.reserve(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    handles.push_back(sched.submit([] {
      // Each spawned future bumps its worker's spawns/touches cells; the
      // tight += loop stresses the counter lines themselves.
      auto f = spawn([] {
        for (std::uint64_t i = 0; i < kSpinsPerJob; ++i)
          detail::current_worker()->counters().touches += 1;
      });
      f.touch();
    }));
  }
  for (auto& h : handles) h.wait();
  stop.store(true, std::memory_order_release);
  monitor.join();

  // Quiescent snapshot: every touch-cell increment is visible exactly once
  // (kSpinsPerJob synthetic bumps plus the one real touch per job).
  const CountersReport final_snap = sched.counters();
  EXPECT_EQ(final_snap.total().touches,
            kJobs * (kSpinsPerJob + 1));
  EXPECT_EQ(final_snap.total().spawns, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(final_snap.per_worker.size(), 4u);
}

}  // namespace
}  // namespace wsf::runtime
