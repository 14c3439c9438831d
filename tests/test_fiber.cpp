// Direct tests of runtime::Fiber, the context switch under the scheduler:
// register and floating-point state across switches, entry-stack alignment,
// cross-thread resumption, stack reuse, exceptions inside a fiber, and the
// guard page under the stack. Runtime label, so the ASan and TSan jobs run
// it with their fiber-switch annotations active.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/fiber.hpp"
#include "runtime/pool.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define WSF_TEST_ASAN 1
#elif defined(__SANITIZE_THREAD__)
#define WSF_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define WSF_TEST_ASAN 1
#elif __has_feature(thread_sanitizer)
#define WSF_TEST_TSAN 1
#endif
#endif

namespace wsf::runtime {
namespace {

constexpr std::size_t kStack = 64 * 1024;

// One step of the recurrence the round-trip test keeps live across switches.
struct Mix {
  std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, g = 6;
  void step(std::uint64_t i, std::uint64_t handed) {
    a += i;
    b ^= a;
    c += b * 3;
    d = d * 31 + c;
    e += d >> 3;
    g ^= e + handed;
  }
  std::uint64_t sum() const { return a + b + c + d + e + g; }
};

TEST(Fiber, HundredThousandRoundTripsKeepLocalsLive) {
  constexpr std::uint64_t kRounds = 100'000;
  Fiber* self = nullptr;
  std::uint64_t handed = 0;  // written by the resumer before each resume
  std::uint64_t fiber_sum = 0;
  Fiber fiber(
      [&] {
        // Six locals live across every switch, in callee-saved registers or
        // stack slots; each must come back exactly as the fiber left it.
        Mix m;
        for (std::uint64_t i = 0; i < kRounds; ++i) {
          m.step(i, handed);
          self->suspend();
        }
        fiber_sum = m.sum();
      },
      kStack);
  self = &fiber;

  Fiber::Context here;
  std::uint64_t resumer_local = 0x9e3779b97f4a7c15u;
  std::uint64_t switches = 0;
  while (!fiber.finished()) {
    handed = switches;
    fiber.resume(&here);
    ++switches;
    resumer_local = resumer_local * 6364136223846793005u + switches;
  }

  Mix expected;
  std::uint64_t expected_local = 0x9e3779b97f4a7c15u;
  for (std::uint64_t i = 0; i < kRounds; ++i) expected.step(i, i);
  for (std::uint64_t s = 1; s <= kRounds + 1; ++s)
    expected_local = expected_local * 6364136223846793005u + s;
  EXPECT_EQ(switches, kRounds + 1);
  EXPECT_EQ(fiber_sum, expected.sum());
  EXPECT_EQ(resumer_local, expected_local);
}

// 1/10 is inexact, and its nearest binary value lies above the exact
// quotient in both double and x87 extended precision, so rounding down and
// rounding to nearest differ in SSE (double, MXCSR) and x87 (long double,
// x87 control word) arithmetic alike. The volatile operands and results pin
// each division between the surrounding calls.
volatile double g_one = 1.0;
volatile double g_ten = 10.0;
volatile long double g_lone = 1.0L;
volatile long double g_lten = 10.0L;

struct FpProbe {
  int round = -1;
  double sse = 0;
  long double x87 = 0;
};

FpProbe probe_fp() {
  volatile double q = g_one / g_ten;
  volatile long double lq = g_lone / g_lten;
  return {std::fegetround(), q, lq};
}

TEST(Fiber, RoundingModeStaysWithItsContext) {
  ASSERT_EQ(std::fesetround(FE_TONEAREST), 0);
  const FpProbe nearest = probe_fp();
  ASSERT_EQ(std::fesetround(FE_DOWNWARD), 0);
  const FpProbe down = probe_fp();
  ASSERT_EQ(std::fesetround(FE_TONEAREST), 0);
  ASSERT_LT(down.sse, nearest.sse);
  ASSERT_LT(down.x87, nearest.x87);

  Fiber* self = nullptr;
  FpProbe before_suspend;
  FpProbe after_resume;
  Fiber fiber(
      [&] {
        std::fesetround(FE_DOWNWARD);
        before_suspend = probe_fp();
        self->suspend();
        after_resume = probe_fp();
      },
      kStack);
  self = &fiber;

  Fiber::Context here;
  fiber.resume(&here);
  const FpProbe resumer_mid = probe_fp();  // the fiber's mode must not leak
  std::fesetround(FE_UPWARD);  // nor may the resumer's leak into the fiber
  fiber.resume(&here);
  const int resumer_after = std::fegetround();
  std::fesetround(FE_TONEAREST);

  ASSERT_TRUE(fiber.finished());
  EXPECT_EQ(before_suspend.round, FE_DOWNWARD);
  EXPECT_EQ(before_suspend.sse, down.sse);
  EXPECT_EQ(before_suspend.x87, down.x87);
  EXPECT_EQ(resumer_mid.round, FE_TONEAREST);
  EXPECT_EQ(resumer_mid.sse, nearest.sse);
  EXPECT_EQ(resumer_mid.x87, nearest.x87);
  EXPECT_EQ(after_resume.round, FE_DOWNWARD);
  EXPECT_EQ(after_resume.sse, down.sse);
  EXPECT_EQ(after_resume.x87, down.x87);
  EXPECT_EQ(resumer_after, FE_UPWARD);
}

// glibc's %f formatting keeps 16-byte-aligned SSE spills on the stack, so it
// faults when a fresh fiber enters on a misaligned stack.
TEST(Fiber, FreshFiberEntersOnAnAbiAlignedStack) {
  char buf[64] = {};
  Fiber fiber([&] { std::snprintf(buf, sizeof buf, "%f", 3.25); }, kStack);
  Fiber::Context here;
  fiber.resume(&here);
  EXPECT_TRUE(fiber.finished());
  EXPECT_STREQ(buf, "3.250000");
}

TEST(Fiber, SuspendOnOneThreadResumeOnAnother) {
  constexpr int kThreads = 64;
  Fiber* self = nullptr;
  int resumer = -1;  // set by each resuming thread before it resumes
  std::vector<int> seen;
  seen.reserve(kThreads);
  std::uint64_t live_at_end = 0;
  Fiber fiber(
      [&] {
        std::uint64_t live = 0xfeedface;
        for (int i = 0; i < kThreads - 1; ++i) {
          seen.push_back(resumer);
          live = live * 33 + static_cast<std::uint64_t>(i);
          self->suspend();
        }
        seen.push_back(resumer);
        live_at_end = live;
      },
      kStack);
  self = &fiber;
  // One thread per resume: each suspension is resumed from a different
  // thread than the one it suspended on (join orders the hand-overs).
  for (int t = 0; t < kThreads; ++t) {
    std::thread([&, t] {
      resumer = t;
      Fiber::Context here;
      fiber.resume(&here);
    }).join();
  }
  ASSERT_TRUE(fiber.finished());
  std::vector<int> expected_seen(kThreads);
  std::iota(expected_seen.begin(), expected_seen.end(), 0);
  std::uint64_t expected_live = 0xfeedface;
  for (int i = 0; i < kThreads - 1; ++i)
    expected_live = expected_live * 33 + static_cast<std::uint64_t>(i);
  EXPECT_EQ(seen, expected_seen);
  EXPECT_EQ(live_at_end, expected_live);
}

TEST(Fiber, TenThousandRebindsReuseOneStack) {
  constexpr std::uint64_t kRebinds = 10'000;
  Fiber* self = nullptr;
  Fiber fiber([] {}, kStack);
  self = &fiber;
  Fiber::Context here;
  fiber.resume(&here);
  ASSERT_TRUE(fiber.finished());

  std::uint64_t total = 0;
  std::uint64_t bad_states = 0;
  for (std::uint64_t i = 0; i < kRebinds; ++i) {
    fiber.rebind([&, i] {
      total += i;
      self->suspend();
      total += i;
    });
    fiber.resume(&here);
    if (fiber.finished()) ++bad_states;
    fiber.resume(&here);
    if (!fiber.finished()) ++bad_states;
  }
  EXPECT_EQ(bad_states, 0u);
  EXPECT_EQ(total, kRebinds * (kRebinds - 1));  // 2 * sum(0 .. kRebinds-1)
}

// noinline: a real frame between the catch and the throw, suspended in the
// middle.
__attribute__((noinline)) void suspend_then_throw(Fiber* f, int v) {
  f->suspend();
  throw std::runtime_error("thrown on the fiber: " + std::to_string(v));
}

TEST(Fiber, ExceptionThrownAndCaughtAcrossASuspension) {
  Fiber* self = nullptr;
  std::string caught;
  Fiber fiber(
      [&] {
        try {
          suspend_then_throw(self, 7);
        } catch (const std::runtime_error& e) {
          caught = e.what();
        }
      },
      kStack);
  self = &fiber;

  Fiber::Context here;
  fiber.resume(&here);  // suspended inside the fiber's try block
  ASSERT_FALSE(fiber.finished());
  // The resumer's own exception handling in between must not disturb it.
  std::string resumer_caught;
  try {
    throw std::logic_error("thrown on the resumer");
  } catch (const std::logic_error& e) {
    resumer_caught = e.what();
  }
  fiber.resume(&here);
  EXPECT_TRUE(fiber.finished());
  EXPECT_EQ(caught, "thrown on the fiber: 7");
  EXPECT_EQ(resumer_caught, "thrown on the resumer");
}

struct Mapping {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
  std::string perms;
};

std::vector<Mapping> read_maps() {
  std::vector<Mapping> out;
  std::ifstream in("/proc/self/maps");
  std::string range;
  std::string perms;
  std::string rest;
  while (in >> range >> perms && std::getline(in, rest)) {
    const std::size_t dash = range.find('-');
    out.push_back({std::stoull(range.substr(0, dash), nullptr, 16),
                   std::stoull(range.substr(dash + 1), nullptr, 16), perms});
  }
  return out;
}

// The mapping holding a fiber's frames is at most the requested stack size
// deep below them, and the page under it is inaccessible.
TEST(Fiber, StackSitsDirectlyAboveAGuardPage) {
  std::uintptr_t frame = 0;
  Fiber fiber(
      [&] {
        frame = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
      },
      kStack);
  Fiber::Context here;
  fiber.resume(&here);
  ASSERT_TRUE(fiber.finished());

  const std::vector<Mapping> maps = read_maps();
  const auto stack = std::find_if(maps.begin(), maps.end(), [&](auto& m) {
    return m.lo <= frame && frame < m.hi;
  });
  ASSERT_NE(stack, maps.end());
  EXPECT_EQ(stack->perms.substr(0, 2), "rw");
  EXPECT_LE(frame - stack->lo, kStack);
  const auto guard = std::find_if(maps.begin(), maps.end(), [&](auto& m) {
    return m.hi == stack->lo;
  });
  ASSERT_NE(guard, maps.end());
  EXPECT_EQ(guard->perms.substr(0, 3), "---");
}

// One real frame per level: the callee gets the address of this frame's
// buffer, so the compiler can neither tail-call nor turn it into a loop.
// No caller passes a limit a fiber stack can hold.
__attribute__((noinline)) std::uint64_t recurse(
    std::uint64_t depth, std::uint64_t limit, volatile unsigned char* parent) {
  volatile unsigned char pad[256];
  pad[0] = static_cast<unsigned char>(parent != nullptr ? parent[0] + 1 : 0);
  if (depth == limit) return static_cast<std::uint64_t>(pad[0]);
  const std::uint64_t below = recurse(depth + 1, limit, pad);
  return below + static_cast<std::uint64_t>(pad[0]);
}

// A task that recurses past its 64 KiB stack runs into the guard page below
// it and dies there, instead of writing over whatever memory lies below.
TEST(FiberDeathTest, StackOverflowDiesAtTheGuardPage) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const auto overflow = [] {
    RuntimeOptions opts;
    opts.workers = 1;
    opts.stack_bytes = kStack;
    Scheduler sched(opts);
    const std::uint64_t r = sched.run(
        [] { return recurse(0, std::uint64_t{1} << 40, nullptr); });
    std::fprintf(stderr, "recursion returned %llu\n",
                 static_cast<unsigned long long>(r));
  };
#if defined(WSF_TEST_ASAN)
  // ASan's SIGSEGV handler runs on the alternate signal stack ASan gives
  // every thread, and reports the overflow before exiting.
  EXPECT_DEATH(overflow(), "stack-overflow");
#elif defined(WSF_TEST_TSAN)
  // TSan reports the overflow only where its runtime gives the worker an
  // alternate signal stack; otherwise the kernel delivers SIGSEGV.
  EXPECT_DEATH(overflow(), "");
#else
  // No handler can run on the overflowed stack: the kernel delivers SIGSEGV.
  EXPECT_EXIT(overflow(), ::testing::KilledBySignal(SIGSEGV), "");
#endif
}

}  // namespace
}  // namespace wsf::runtime
