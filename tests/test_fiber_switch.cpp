// Direct tests of the fiber-to-fiber operations of runtime::Fiber:
// switch_into (a running fiber switches straight into another, fresh or
// suspended) and exit_into (a finishing fiber exits into another instead of
// its return context). Covers live state across direct switches, the return
// context a switched-into fiber takes over, reuse of both stacks after an
// exit, floating-point control state, cross-thread resumption and
// exceptions. Runtime label, so the ASan and TSan jobs run it with their
// fiber-switch annotations active.
#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/fiber.hpp"

namespace wsf::runtime {
namespace {

constexpr std::size_t kStack = 64 * 1024;

// One step of the recurrence the round-trip test keeps live across
// switches.
struct Mix {
  std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, g = 6;
  void step(std::uint64_t i) {
    a += i;
    b ^= a;
    c += b * 3;
    d = d * 31 + c;
    e += d >> 3;
    g ^= e + i;
  }
  std::uint64_t sum() const { return a + b + c + d + e + g; }
};

TEST(FiberSwitch, HundredThousandDirectRoundTripsKeepLocalsLive) {
  constexpr std::uint64_t kRounds = 100'000;
  Fiber* ping = nullptr;
  Fiber* pong = nullptr;
  std::uint64_t ping_sum = 0;
  std::uint64_t pong_sum = 0;
  std::uint64_t switches = 0;
  // ping starts pong with its first switch; each then switches into the
  // other once per round, keeping six locals live across every switch.
  Fiber ping_fiber(
      [&] {
        Mix m;
        for (std::uint64_t i = 0; i < kRounds; ++i) {
          m.step(i);
          ++switches;
          ping->switch_into(*pong);
        }
        ping_sum = m.sum();
      },
      kStack);
  Fiber pong_fiber(
      [&] {
        Mix m;
        m.a = 7;
        for (std::uint64_t i = 0; i < kRounds; ++i) {
          m.step(i * 3);
          ++switches;
          pong->switch_into(*ping);
        }
        pong_sum = m.sum();
      },
      kStack);
  ping = &ping_fiber;
  pong = &pong_fiber;

  Fiber::Context here;
  std::uint64_t resumer_local = 0x9e3779b97f4a7c15u;
  // ping finishes after its last round and returns here, the return
  // context it handed pong and got back; pong is left suspended in its
  // last switch.
  ping_fiber.resume(&here);
  resumer_local = resumer_local * 6364136223846793005u + 1;
  ASSERT_TRUE(ping_fiber.finished());
  ASSERT_FALSE(pong_fiber.finished());
  pong_fiber.resume(&here);
  resumer_local = resumer_local * 6364136223846793005u + 2;
  ASSERT_TRUE(pong_fiber.finished());

  Mix ping_expected;
  Mix pong_expected;
  pong_expected.a = 7;
  for (std::uint64_t i = 0; i < kRounds; ++i) {
    ping_expected.step(i);
    pong_expected.step(i * 3);
  }
  EXPECT_EQ(switches, 2 * kRounds);
  EXPECT_EQ(ping_sum, ping_expected.sum());
  EXPECT_EQ(pong_sum, pong_expected.sum());
  EXPECT_EQ(resumer_local,
            (0x9e3779b97f4a7c15u * 6364136223846793005u + 1) *
                    6364136223846793005u +
                2);
}

TEST(FiberSwitch, SuspendAfterADirectSwitchLandsInTheOriginalResumer) {
  Fiber* first = nullptr;
  Fiber* second = nullptr;
  std::vector<std::string> log;
  Fiber first_fiber(
      [&] {
        log.push_back("first");
        first->switch_into(*second);
        log.push_back("first again");
      },
      kStack);
  Fiber second_fiber(
      [&] {
        log.push_back("second");
        second->suspend();  // must come back to the resume() below
        log.push_back("second again");
      },
      kStack);
  first = &first_fiber;
  second = &second_fiber;

  Fiber::Context here;
  first_fiber.resume(&here);
  log.push_back("resumer");
  EXPECT_FALSE(first_fiber.finished());
  EXPECT_FALSE(second_fiber.finished());
  second_fiber.resume(&here);
  EXPECT_TRUE(second_fiber.finished());
  first_fiber.resume(&here);
  EXPECT_TRUE(first_fiber.finished());
  EXPECT_EQ(log, (std::vector<std::string>{"first", "second", "resumer",
                                           "second again", "first again"}));
}

TEST(FiberSwitch, ExitIntoASuspendedFiberThenRebindBoth) {
  Fiber* parent = nullptr;
  Fiber* child = nullptr;
  int parent_steps = 0;
  int child_steps = 0;
  const auto parent_body = [&] {
    ++parent_steps;
    parent->switch_into(*child);  // the child exits straight back here
    ++parent_steps;
  };
  const auto child_body = [&] {
    ++child_steps;
    child->exit_into(*parent);
  };
  Fiber parent_fiber(parent_body, kStack);
  Fiber child_fiber(child_body, kStack);
  parent = &parent_fiber;
  child = &child_fiber;

  Fiber::Context here;
  constexpr int kRounds = 1000;
  for (int round = 0; round < kRounds; ++round) {
    if (round > 0) {
      parent_fiber.rebind(parent_body);
      child_fiber.rebind(child_body);
    }
    parent_fiber.resume(&here);  // returns once, when the parent finishes
    ASSERT_TRUE(child_fiber.finished());
    ASSERT_TRUE(parent_fiber.finished());
  }
  EXPECT_EQ(parent_steps, 2 * kRounds);
  EXPECT_EQ(child_steps, kRounds);
}

// See test_fiber.cpp: 1/10 rounds differently down and to nearest in both
// SSE (MXCSR) and x87 (control word) arithmetic.
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

TEST(FiberSwitch, FloatingPointControlStaysWithEachFiber) {
  ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
  const FpProbe up = probe_fp();
  ASSERT_EQ(std::fesetround(FE_DOWNWARD), 0);
  const FpProbe down = probe_fp();
  ASSERT_EQ(std::fesetround(FE_TONEAREST), 0);
  const FpProbe nearest = probe_fp();
  ASSERT_LT(down.sse, nearest.sse);
  ASSERT_LT(down.x87, nearest.x87);
  ASSERT_GT(up.sse, down.sse);

  Fiber* a = nullptr;
  Fiber* b = nullptr;
  FpProbe a_before, a_after, b_before, b_after;
  int b_inherited = -1;
  Fiber a_fiber(
      [&] {
        std::fesetround(FE_DOWNWARD);
        a_before = probe_fp();
        a->switch_into(*b);  // b starts with a's control state
        a_after = probe_fp();
      },
      kStack);
  Fiber b_fiber(
      [&] {
        b_inherited = std::fegetround();
        std::fesetround(FE_UPWARD);
        b_before = probe_fp();
        b->switch_into(*a);
        b_after = probe_fp();
      },
      kStack);
  a = &a_fiber;
  b = &b_fiber;

  Fiber::Context here;
  a_fiber.resume(&here);  // a finishes after b switches back into it
  const FpProbe resumer_mid = probe_fp();
  b_fiber.resume(&here);
  const FpProbe resumer_after = probe_fp();
  std::fesetround(FE_TONEAREST);

  ASSERT_TRUE(a_fiber.finished());
  ASSERT_TRUE(b_fiber.finished());
  EXPECT_EQ(b_inherited, FE_DOWNWARD);
  EXPECT_EQ(a_before.round, FE_DOWNWARD);
  EXPECT_EQ(a_after.round, FE_DOWNWARD);
  EXPECT_EQ(a_after.sse, down.sse);
  EXPECT_EQ(a_after.x87, down.x87);
  EXPECT_EQ(b_before.round, FE_UPWARD);
  EXPECT_EQ(b_after.round, FE_UPWARD);
  EXPECT_EQ(b_after.sse, up.sse);
  EXPECT_EQ(b_after.x87, up.x87);
  EXPECT_EQ(resumer_mid.round, FE_TONEAREST);
  EXPECT_EQ(resumer_mid.sse, nearest.sse);
  EXPECT_EQ(resumer_mid.x87, nearest.x87);
  EXPECT_EQ(resumer_after.round, FE_TONEAREST);
}

TEST(FiberSwitch, DirectlyEnteredFiberResumedFromAnotherThread) {
  Fiber* first = nullptr;
  Fiber* second = nullptr;
  int resumer = -1;  // set by each resuming thread before it resumes
  std::vector<int> seen;
  std::uint64_t live_at_end = 0;
  Fiber first_fiber(
      [&] {
        seen.push_back(resumer);
        first->switch_into(*second);
        // Switched back into by second on thread 1: this finish returns to
        // thread 1's context, which second handed over.
        seen.push_back(resumer);
      },
      kStack);
  Fiber second_fiber(
      [&] {
        std::uint64_t live = 0xfeedface;
        seen.push_back(resumer);
        second->suspend();  // lands in thread 0's resume of first
        live = live * 33 + 1;
        seen.push_back(resumer);
        second->switch_into(*first);
        live = live * 33 + 2;
        seen.push_back(resumer);
        live_at_end = live;
      },
      kStack);
  first = &first_fiber;
  second = &second_fiber;

  // One thread per resume; join orders the hand-overs.
  Fiber* const resumed[] = {&first_fiber, &second_fiber, &second_fiber};
  for (int t = 0; t < 3; ++t) {
    std::thread([&, t] {
      resumer = t;
      Fiber::Context here;
      resumed[t]->resume(&here);
    }).join();
    EXPECT_EQ(first_fiber.finished(), t > 0) << "after thread " << t;
  }
  ASSERT_TRUE(second_fiber.finished());
  EXPECT_EQ(seen, (std::vector<int>{0, 0, 1, 1, 2}));
  EXPECT_EQ(live_at_end, (std::uint64_t{0xfeedface} * 33 + 1) * 33 + 2);
}

// noinline: a real frame between the catch and the throw, suspended in the
// middle of a direct switch.
__attribute__((noinline)) void switch_then_throw(Fiber* self, Fiber* next,
                                                 int v) {
  self->switch_into(*next);
  throw std::runtime_error("thrown after the switch: " + std::to_string(v));
}

TEST(FiberSwitch, ExceptionCaughtAcrossDirectSwitches) {
  Fiber* a = nullptr;
  Fiber* b = nullptr;
  std::string a_caught;
  std::string b_caught;
  Fiber a_fiber(
      [&] {
        try {
          switch_then_throw(a, b, 7);
        } catch (const std::runtime_error& e) {
          a_caught = e.what();
        }
      },
      kStack);
  Fiber b_fiber(
      [&] {
        // b's own exception handling, while a is suspended inside its try
        // block, must not disturb a's.
        try {
          throw std::logic_error("thrown on b");
        } catch (const std::logic_error& e) {
          b_caught = e.what();
        }
        b->exit_into(*a);
      },
      kStack);
  a = &a_fiber;
  b = &b_fiber;

  Fiber::Context here;
  a_fiber.resume(&here);
  EXPECT_TRUE(a_fiber.finished());
  EXPECT_TRUE(b_fiber.finished());
  EXPECT_EQ(a_caught, "thrown after the switch: 7");
  EXPECT_EQ(b_caught, "thrown on b");
}

}  // namespace
}  // namespace wsf::runtime
