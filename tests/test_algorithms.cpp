// parallel_for / parallel_invoke / parallel_reduce on both spawn policies.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "runtime/algorithms.hpp"
#include "support/check.hpp"

namespace wsf::runtime {
namespace {

using core::ForkPolicy;

class AlgorithmsBothPolicies : public ::testing::TestWithParam<ForkPolicy> {
 protected:
  Scheduler make() {
    RuntimeOptions opts;
    opts.workers = 4;
    opts.policy = GetParam();
    return Scheduler(opts);
  }
};

TEST_P(AlgorithmsBothPolicies, ParallelForCoversRangeExactlyOnce) {
  RuntimeOptions opts;
  opts.workers = 4;
  opts.policy = GetParam();
  Scheduler sched(opts);
  constexpr std::size_t kN = 5000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  sched.run([&] {
    parallel_for(0, kN, 64, [&](std::size_t i) { hits[i].fetch_add(1); });
  });
  for (std::size_t i = 0; i < kN; ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST_P(AlgorithmsBothPolicies, ParallelForEmptyAndTinyRanges) {
  RuntimeOptions opts;
  opts.workers = 2;
  opts.policy = GetParam();
  Scheduler sched(opts);
  int count = 0;
  sched.run([&] {
    parallel_for(5, 5, 8, [&](std::size_t) { ++count; });   // empty
    parallel_for(5, 6, 8, [&](std::size_t) { ++count; });   // single
  });
  EXPECT_EQ(count, 1);
}

TEST_P(AlgorithmsBothPolicies, ParallelInvokeReturnsBoth) {
  RuntimeOptions opts;
  opts.workers = 2;
  opts.policy = GetParam();
  Scheduler sched(opts);
  const auto [a, b] = sched.run([] {
    return parallel_invoke([] { return 6; }, [] { return 7; });
  });
  EXPECT_EQ(a, 6);
  EXPECT_EQ(b, 7);
}

TEST_P(AlgorithmsBothPolicies, ParallelReduceSum) {
  RuntimeOptions opts;
  opts.workers = 4;
  opts.policy = GetParam();
  Scheduler sched(opts);
  const long total = sched.run([] {
    return parallel_reduce<long>(
        0, 10000, 128, 0L, [](std::size_t i) { return static_cast<long>(i); },
        [](long a, long b) { return a + b; });
  });
  EXPECT_EQ(total, 10000L * 9999L / 2);
}

TEST_P(AlgorithmsBothPolicies, NestedParallelFor) {
  RuntimeOptions opts;
  opts.workers = 4;
  opts.policy = GetParam();
  Scheduler sched(opts);
  std::atomic<int> total{0};
  sched.run([&] {
    parallel_for(0, 32, 4, [&](std::size_t) {
      parallel_for(0, 32, 4, [&](std::size_t) { total.fetch_add(1); });
    });
  });
  EXPECT_EQ(total.load(), 32 * 32);
}

INSTANTIATE_TEST_SUITE_P(Policies, AlgorithmsBothPolicies,
                         ::testing::Values(ForkPolicy::FutureFirst,
                                           ForkPolicy::ParentFirst),
                         [](const auto& param_info) {
                           return param_info.param == ForkPolicy::FutureFirst
                                      ? "FutureFirst"
                                      : "ParentFirst";
                         });

TEST(Algorithms, GrainZeroRejected) {
  Scheduler sched({.workers = 1});
  EXPECT_THROW(sched.run([] {
    parallel_for(0, 10, 0, [](std::size_t) {});
  }),
               CheckError);
}

}  // namespace
}  // namespace wsf::runtime
