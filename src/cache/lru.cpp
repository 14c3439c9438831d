#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/block_index.hpp"
#include "cache/cache.hpp"

namespace wsf::cache {
namespace {

/// Fully associative LRU: C block slots, a u32 prev/next recency list over
/// them (circular, through a sentinel at index C; next of the sentinel is
/// the most recent slot, prev the least recent), and the open-addressing
/// block index. O(1) per access, and no allocation after construction.
class LruCache final : public CacheModel {
 public:
  explicit LruCache(std::size_t lines)
      : index_(lines), prev_(lines + 1), next_(lines + 1) {
    reset();
  }

  void reset() override {
    index_.clear();
    used_ = 0;
    prev_[sentinel()] = next_[sentinel()] = sentinel();
    reset_counters();
  }

  std::size_t capacity() const override { return index_.lines(); }
  std::string name() const override { return "lru"; }

  bool contains(core::BlockId block) const override {
    return index_.find(block) != BlockIndex::kNoSlot;
  }

 protected:
  bool lookup_and_insert(core::BlockId block) override {
    std::uint32_t slot = index_.find(block);
    if (slot != BlockIndex::kNoSlot) {
      if (next_[sentinel()] != slot) {
        unlink(slot);
        push_front(slot);
      }
      return false;  // hit
    }
    if (used_ < index_.lines()) {
      slot = static_cast<std::uint32_t>(used_++);
    } else {
      slot = prev_[sentinel()];  // least recently used
      index_.evict(slot);
      unlink(slot);
    }
    index_.insert(slot, block);
    push_front(slot);
    return true;  // miss
  }

 private:
  std::uint32_t sentinel() const {
    return static_cast<std::uint32_t>(index_.lines());
  }

  void unlink(std::uint32_t slot) {
    next_[prev_[slot]] = next_[slot];
    prev_[next_[slot]] = prev_[slot];
  }

  void push_front(std::uint32_t slot) {
    const std::uint32_t head = next_[sentinel()];
    prev_[slot] = sentinel();
    next_[slot] = head;
    prev_[head] = slot;
    next_[sentinel()] = slot;
  }

  BlockIndex index_;
  std::vector<std::uint32_t> prev_;
  std::vector<std::uint32_t> next_;
  /// Slots filled since the last reset; slots below it are resident.
  std::size_t used_ = 0;
};

}  // namespace

std::unique_ptr<CacheModel> make_lru(std::size_t lines) {
  return std::make_unique<LruCache>(lines);
}

}  // namespace wsf::cache
