// Chase–Lev deque: sequential semantics plus owner/thief stress tests.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "runtime/chase_lev.hpp"

namespace wsf::runtime {
namespace {

using IntPtr = int*;

TEST(ChaseLev, LifoForOwner) {
  ChaseLevDeque<IntPtr> d;
  int a = 1, b = 2, c = 3;
  d.push_bottom(&a);
  d.push_bottom(&b);
  d.push_bottom(&c);
  EXPECT_EQ(d.pop_bottom(), &c);
  EXPECT_EQ(d.pop_bottom(), &b);
  EXPECT_EQ(d.pop_bottom(), &a);
  EXPECT_EQ(d.pop_bottom(), nullptr);
}

TEST(ChaseLev, FifoForThief) {
  ChaseLevDeque<IntPtr> d;
  int a = 1, b = 2, c = 3;
  d.push_bottom(&a);
  d.push_bottom(&b);
  d.push_bottom(&c);
  EXPECT_EQ(d.steal_top(), &a);
  EXPECT_EQ(d.steal_top(), &b);
  EXPECT_EQ(d.steal_top(), &c);
  EXPECT_EQ(d.steal_top(), nullptr);
}

TEST(ChaseLev, MixedEnds) {
  ChaseLevDeque<IntPtr> d;
  int v[4] = {0, 1, 2, 3};
  for (int& x : v) d.push_bottom(&x);
  EXPECT_EQ(d.steal_top(), &v[0]);
  EXPECT_EQ(d.pop_bottom(), &v[3]);
  EXPECT_EQ(d.steal_top(), &v[1]);
  EXPECT_EQ(d.pop_bottom(), &v[2]);
  EXPECT_EQ(d.pop_bottom(), nullptr);
  EXPECT_EQ(d.steal_top(), nullptr);
}

TEST(ChaseLev, GrowsPastInitialCapacity) {
  ChaseLevDeque<IntPtr> d(8);
  std::vector<int> vals(1000);
  for (int i = 0; i < 1000; ++i) d.push_bottom(&vals[i]);
  EXPECT_EQ(d.size_estimate(), 1000u);
  for (int i = 999; i >= 0; --i) EXPECT_EQ(d.pop_bottom(), &vals[i]);
}

TEST(ChaseLev, StressOwnerVsThieves) {
  // Owner pushes N items and pops; T thieves steal concurrently. Every item
  // must be extracted exactly once (checked by an atomic take-count per
  // item) and none lost.
  constexpr int kItems = 20000;
  constexpr int kThieves = 3;
  ChaseLevDeque<IntPtr> d;
  std::vector<int> vals(kItems);
  std::vector<std::atomic<int>> taken(kItems);
  for (auto& t : taken) t.store(0);
  for (int i = 0; i < kItems; ++i) vals[i] = i;

  std::atomic<bool> done{false};
  std::atomic<int> extracted{0};

  auto thief = [&] {
    while (!done.load(std::memory_order_acquire) ||
           d.size_estimate() > 0) {
      if (IntPtr p = d.steal_top()) {
        taken[*p].fetch_add(1);
        extracted.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) thieves.emplace_back(thief);

  // Owner: interleave pushes and pops.
  for (int i = 0; i < kItems; ++i) {
    d.push_bottom(&vals[i]);
    if (i % 3 == 0) {
      if (IntPtr p = d.pop_bottom()) {
        taken[*p].fetch_add(1);
        extracted.fetch_add(1);
      }
    }
  }
  while (IntPtr p = d.pop_bottom()) {
    taken[*p].fetch_add(1);
    extracted.fetch_add(1);
  }
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();
  // Drain any residue (thieves may have exited between pops).
  while (IntPtr p = d.steal_top()) {
    taken[*p].fetch_add(1);
    extracted.fetch_add(1);
  }

  EXPECT_EQ(extracted.load(), kItems);
  for (int i = 0; i < kItems; ++i)
    ASSERT_EQ(taken[i].load(), 1) << "item " << i;
}

TEST(ChaseLev, StealBatchSequential) {
  ChaseLevDeque<IntPtr> d;
  int v[6] = {0, 1, 2, 3, 4, 5};
  for (int& x : v) d.push_bottom(&x);
  // The caller sizes the claim (core::steal_claim): up to max_n items,
  // oldest-first, with no halving of its own.
  std::vector<IntPtr> out;
  EXPECT_EQ(d.steal_batch(out, 4), 4u);
  ASSERT_EQ(out.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], &v[i]);
  out.clear();
  EXPECT_EQ(d.steal_batch(out, 1), 1u);  // a claim of one is steal_top
  EXPECT_EQ(out[0], &v[4]);
  out.clear();
  EXPECT_EQ(d.steal_batch(out, 16), 1u);  // stops when the deque empties
  EXPECT_EQ(out[0], &v[5]);
  out.clear();
  EXPECT_EQ(d.steal_batch(out, 16), 0u);  // empty
  EXPECT_TRUE(out.empty());
  d.push_bottom(&v[0]);
  EXPECT_EQ(d.steal_batch(out, 0), 0u);  // a claim of zero takes nothing
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(d.pop_bottom(), &v[0]);
}

TEST(ChaseLev, StressOwnerVsBatchThieves) {
  // The steal-half version of StressOwnerVsThieves: the owner pushes and
  // free-pops at the bottom while thieves claim batches at the top. Every
  // item must be extracted exactly once — a batch claim that kept a stale
  // bottom would double-consume an owner-popped item — and the per-thief
  // claim tallies must sum to the extraction total (no item silently
  // dropped inside a batch).
  constexpr int kItems = 20000;
  constexpr int kThieves = 3;
  ChaseLevDeque<IntPtr> d;
  std::vector<int> vals(kItems);
  std::vector<std::atomic<int>> taken(kItems);
  for (auto& t : taken) t.store(0);
  for (int i = 0; i < kItems; ++i) vals[i] = i;

  std::atomic<bool> done{false};
  std::atomic<int> extracted{0};
  std::atomic<int> claimed_by_thieves{0};

  auto thief = [&] {
    std::vector<IntPtr> batch;
    int claimed = 0;
    while (!done.load(std::memory_order_acquire) ||
           d.size_estimate() > 0) {
      batch.clear();
      const std::size_t got = d.steal_batch(batch, 8);
      ASSERT_EQ(batch.size(), got);
      for (IntPtr p : batch) {
        taken[*p].fetch_add(1);
        extracted.fetch_add(1);
      }
      claimed += static_cast<int>(got);
    }
    claimed_by_thieves.fetch_add(claimed);
  };
  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) thieves.emplace_back(thief);

  // Owner: interleave pushes and free-pops (the pops race the thieves'
  // batch claims — the hazard steal_batch must survive).
  int owner_took = 0;
  for (int i = 0; i < kItems; ++i) {
    d.push_bottom(&vals[i]);
    if (i % 3 == 0) {
      if (IntPtr p = d.pop_bottom()) {
        taken[*p].fetch_add(1);
        extracted.fetch_add(1);
        ++owner_took;
      }
    }
  }
  while (IntPtr p = d.pop_bottom()) {
    taken[*p].fetch_add(1);
    extracted.fetch_add(1);
    ++owner_took;
  }
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();
  while (IntPtr p = d.steal_top()) {
    taken[*p].fetch_add(1);
    extracted.fetch_add(1);
    ++owner_took;
  }

  EXPECT_EQ(extracted.load(), kItems);
  // Sum-of-claims identity: every extraction was either an owner pop or
  // part of exactly one thief's batch tally.
  EXPECT_EQ(owner_took + claimed_by_thieves.load(), kItems);
  for (int i = 0; i < kItems; ++i)
    ASSERT_EQ(taken[i].load(), 1) << "item " << i;
}

TEST(ChaseLev, StressAllThieves) {
  // Everything is consumed by thieves only.
  constexpr int kItems = 8000;
  constexpr int kThieves = 4;
  ChaseLevDeque<IntPtr> d;
  std::vector<int> vals(kItems);
  std::vector<std::atomic<int>> taken(kItems);
  for (auto& t : taken) t.store(0);
  for (int i = 0; i < kItems; ++i) {
    vals[i] = i;
    d.push_bottom(&vals[i]);
  }
  std::atomic<int> extracted{0};
  auto thief = [&] {
    while (extracted.load(std::memory_order_acquire) < kItems) {
      if (IntPtr p = d.steal_top()) {
        taken[*p].fetch_add(1);
        extracted.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) thieves.emplace_back(thief);
  for (auto& t : thieves) t.join();
  for (int i = 0; i < kItems; ++i)
    ASSERT_EQ(taken[i].load(), 1) << "item " << i;
}

}  // namespace
}  // namespace wsf::runtime
