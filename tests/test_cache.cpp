// Cache model unit and property tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace wsf::cache {
namespace {

using core::BlockId;

std::vector<BlockId> random_trace(std::uint64_t seed, std::size_t len,
                                  std::uint64_t universe) {
  support::Xoshiro256 rng(seed);
  std::vector<BlockId> t;
  t.reserve(len);
  for (std::size_t i = 0; i < len; ++i)
    t.push_back(static_cast<BlockId>(rng.below(universe)));
  return t;
}

std::uint64_t misses_on(CacheModel& c, const std::vector<BlockId>& trace) {
  std::uint64_t m = 0;
  for (BlockId b : trace)
    if (c.access(b)) ++m;
  return m;
}

TEST(Lru, ColdMissThenHit) {
  auto c = make_lru(4);
  EXPECT_TRUE(c->access(1));
  EXPECT_FALSE(c->access(1));
  EXPECT_EQ(c->misses(), 1u);
  EXPECT_EQ(c->hits(), 1u);
}

TEST(Lru, EvictsLeastRecentlyUsed) {
  auto c = make_lru(2);
  c->access(1);
  c->access(2);
  c->access(1);         // 2 is now LRU
  c->access(3);         // evicts 2
  EXPECT_TRUE(c->contains(1));
  EXPECT_FALSE(c->contains(2));
  EXPECT_TRUE(c->contains(3));
}

TEST(Lru, SweepOverCPlusOneThrashes) {
  // The classic pattern behind the paper's lower bounds: cyclically sweeping
  // C+1 blocks misses on every access.
  const std::size_t C = 6;
  auto c = make_lru(C);
  for (int round = 0; round < 5; ++round)
    for (BlockId b = 0; b <= static_cast<BlockId>(C); ++b)
      EXPECT_TRUE(c->access(b)) << "round " << round << " block " << b;
}

TEST(Lru, PalindromeSweepHitsAfterWarmup) {
  // Ascending then descending over exactly C blocks: everything after the
  // cold pass hits — the palindrome trick used by the fig6a gadget.
  const std::size_t C = 6;
  auto c = make_lru(C);
  for (BlockId b = 1; b <= static_cast<BlockId>(C); ++b) c->access(b);
  const auto cold = c->misses();
  for (int round = 0; round < 4; ++round) {
    for (BlockId b = static_cast<BlockId>(C); b >= 1; --b)
      EXPECT_FALSE(c->access(b));
    for (BlockId b = 1; b <= static_cast<BlockId>(C); ++b)
      EXPECT_FALSE(c->access(b));
  }
  EXPECT_EQ(c->misses(), cold);
}

TEST(Lru, InclusionProperty) {
  // LRU is a stack algorithm: a larger cache never misses more on the same
  // trace.
  const auto trace = random_trace(123, 4000, 64);
  std::uint64_t prev = UINT64_MAX;
  for (std::size_t C : {4u, 8u, 16u, 32u, 64u}) {
    auto c = make_lru(C);
    const auto m = misses_on(*c, trace);
    EXPECT_LE(m, prev) << "C=" << C;
    prev = m;
  }
}

TEST(Lru, ResetClearsEverything) {
  auto c = make_lru(2);
  c->access(1);
  c->reset();
  EXPECT_EQ(c->misses(), 0u);
  EXPECT_EQ(c->accesses(), 0u);
  EXPECT_FALSE(c->contains(1));
}

TEST(Fifo, EvictsOldestRegardlessOfUse) {
  auto c = make_fifo(2);
  c->access(1);
  c->access(2);
  c->access(1);  // refreshes recency but not FIFO order
  c->access(3);  // evicts 1 (oldest inserted)
  EXPECT_FALSE(c->contains(1));
  EXPECT_TRUE(c->contains(2));
  EXPECT_TRUE(c->contains(3));
}

TEST(Direct, ConflictMissesOnAliasedBlocks) {
  auto c = make_direct_mapped(4);
  EXPECT_TRUE(c->access(0));
  EXPECT_TRUE(c->access(4));   // same line as 0
  EXPECT_TRUE(c->access(0));   // conflict again
  EXPECT_FALSE(c->contains(4));
}

TEST(Direct, DistinctLinesCoexist) {
  auto c = make_direct_mapped(4);
  for (BlockId b = 0; b < 4; ++b) c->access(b);
  for (BlockId b = 0; b < 4; ++b) EXPECT_FALSE(c->access(b));
}

TEST(SetAssoc, FullyAssociativeMatchesLru) {
  // A C-way single-set cache is exactly LRU.
  const auto trace = random_trace(9, 3000, 32);
  auto lru = make_lru(8);
  auto assoc = make_set_associative(8, 8);
  EXPECT_EQ(misses_on(*lru, trace), misses_on(*assoc, trace));
}

TEST(SetAssoc, WithinSetLruOrder) {
  // 2 sets × 2 ways; even blocks map to set 0.
  auto c = make_set_associative(4, 2);
  c->access(0);
  c->access(2);
  c->access(0);  // 2 is LRU within set 0
  c->access(4);  // evicts 2
  EXPECT_TRUE(c->contains(0));
  EXPECT_FALSE(c->contains(2));
  EXPECT_TRUE(c->contains(4));
}

TEST(SetAssoc, RejectsIndivisibleGeometry) {
  EXPECT_THROW(make_set_associative(6, 4), wsf::CheckError);
}

TEST(Factory, BuildsEveryPolicy) {
  for (const char* name : {"lru", "fifo", "direct", "assoc2"}) {
    auto c = make_cache(name, 8);
    ASSERT_NE(c, nullptr) << name;
    EXPECT_EQ(c->capacity(), 8u) << name;
    c->access(3);
    EXPECT_TRUE(c->contains(3)) << name;
  }
}

TEST(Factory, RejectsUnknownPolicy) {
  EXPECT_THROW(make_cache("plru", 8), wsf::CheckError);
}

TEST(AllPolicies, MissCountNeverExceedsAccesses) {
  const auto trace = random_trace(77, 2000, 24);
  for (const char* name : {"lru", "fifo", "direct", "assoc4"}) {
    auto c = make_cache(name, 8);
    const auto m = misses_on(*c, trace);
    EXPECT_LE(m, trace.size()) << name;
    EXPECT_GE(m, 24u) << name << " must at least cold-miss the universe";
    EXPECT_EQ(c->accesses(), trace.size()) << name;
  }
}

TEST(AllPolicies, SingleLineCacheHitsOnlyRepeats) {
  for (const char* name : {"lru", "fifo", "direct", "assoc1"}) {
    auto c = make_cache(name, 1);
    EXPECT_TRUE(c->access(1)) << name;
    EXPECT_FALSE(c->access(1)) << name;
    EXPECT_TRUE(c->access(2)) << name;
    EXPECT_TRUE(c->access(1)) << name;
  }
}

// ---- differential tests against reference models ----
//
// The flat LRU and FIFO (block_index.hpp) must reproduce textbook models
// access for access. The references work on indices into a universe of
// block ids; `resident` mirrors their contents so contains() can be
// checked over the whole universe after every access.

/// Textbook LRU: a recency list, front = most recent.
class ReferenceLru {
 public:
  ReferenceLru(std::size_t lines, std::size_t universe)
      : lines_(lines), resident_(universe, 0) {}
  bool access(std::size_t u) {
    const auto it = std::find(recency_.begin(), recency_.end(), u);
    if (it != recency_.end()) {
      recency_.erase(it);
      recency_.push_front(u);
      return false;
    }
    if (recency_.size() == lines_) {
      resident_[recency_.back()] = 0;
      recency_.pop_back();
    }
    recency_.push_front(u);
    resident_[u] = 1;
    return true;
  }
  bool contains(std::size_t u) const { return resident_[u] != 0; }
  void reset() {
    recency_.clear();
    std::fill(resident_.begin(), resident_.end(), 0);
  }

 private:
  std::size_t lines_;
  std::list<std::size_t> recency_;
  std::vector<char> resident_;
};

/// Textbook FIFO: insertion order, front = oldest.
class ReferenceFifo {
 public:
  ReferenceFifo(std::size_t lines, std::size_t universe)
      : lines_(lines), resident_(universe, 0) {}
  bool access(std::size_t u) {
    if (resident_[u]) return false;
    if (order_.size() == lines_) {
      resident_[order_.front()] = 0;
      order_.pop_front();
    }
    order_.push_back(u);
    resident_[u] = 1;
    return true;
  }
  bool contains(std::size_t u) const { return resident_[u] != 0; }
  void reset() {
    order_.clear();
    std::fill(resident_.begin(), resident_.end(), 0);
  }

 private:
  std::size_t lines_;
  std::deque<std::size_t> order_;
  std::vector<char> resident_;
};

/// `size` distinct block ids spread over the whole non-negative 64-bit
/// range, including both ends of it.
std::vector<BlockId> spread_universe(std::uint64_t seed, std::size_t size) {
  support::Xoshiro256 rng(seed);
  std::vector<BlockId> ids{0, std::numeric_limits<BlockId>::max()};
  while (ids.size() < size) {
    const auto id = static_cast<BlockId>(rng.next() >> 1);
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
  }
  ids.resize(size);
  return ids;
}

/// A seeded trace of universe indices: half uniform, half skewed toward low
/// indices so that large universes still produce hits.
std::vector<std::size_t> index_trace(std::uint64_t seed, std::size_t len,
                                     std::size_t universe) {
  support::Xoshiro256 rng(seed);
  std::vector<std::size_t> t;
  t.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    const std::uint64_t bound =
        i % 2 ? universe : rng.below(universe) + 1;  // skewed on odd draws
    t.push_back(static_cast<std::size_t>(rng.below(bound)));
  }
  return t;
}

template <class Reference>
void expect_matches_reference(const std::string& policy) {
  std::uint64_t seed = 1;
  for (const std::size_t lines : {1u, 2u, 3u, 5u, 64u, 256u}) {
    for (const std::size_t universe :
         {std::max<std::size_t>(1, lines / 2), 16 * lines + 3}) {
      const std::vector<BlockId> ids = spread_universe(seed, universe);
      auto flat = make_cache(policy, lines);
      Reference ref(lines, universe);
      // The same cache object runs twice, the second time after reset().
      for (int pass = 0; pass < 2; ++pass, ++seed) {
        if (pass == 1) {
          flat->reset();
          ref.reset();
          EXPECT_EQ(flat->accesses(), 0u);
        }
        const std::vector<std::size_t> trace =
            index_trace(seed, 2000, universe);
        std::uint64_t misses = 0;
        for (std::size_t i = 0; i < trace.size(); ++i) {
          const bool miss = ref.access(trace[i]);
          misses += miss;
          ASSERT_EQ(flat->access(ids[trace[i]]), miss)
              << policy << " C=" << lines << " universe=" << universe
              << " pass=" << pass << " access " << i;
          for (std::size_t u = 0; u < universe; ++u) {
            if (flat->contains(ids[u]) == ref.contains(u)) continue;
            FAIL() << policy << " C=" << lines << " universe=" << universe
                   << " pass=" << pass << ": contains(" << ids[u]
                   << ") disagrees after access " << i;
          }
        }
        EXPECT_EQ(flat->misses(), misses);
        EXPECT_EQ(flat->hits(), trace.size() - misses);
      }
    }
  }
}

TEST(Differential, LruMatchesListReference) {
  expect_matches_reference<ReferenceLru>("lru");
}

TEST(Differential, FifoMatchesDequeReference) {
  expect_matches_reference<ReferenceFifo>("fifo");
}

}  // namespace
}  // namespace wsf::cache
