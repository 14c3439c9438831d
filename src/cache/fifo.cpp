#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "cache/block_index.hpp"
#include "cache/cache.hpp"

namespace wsf::cache {
namespace {

/// Fully associative FIFO: evicts the line that has been resident longest,
/// regardless of use. A "simple" policy in the sense of Acar et al., so the
/// paper's upper bounds also apply to it (tests/test_constructions.cpp,
/// CachePolicies, pins the lower-bound gadgets under it). The C slots of the
/// block index form a ring: misses fill them in order and, once all are
/// full, each miss replaces the slot after the previous one — the oldest.
class FifoCache final : public CacheModel {
 public:
  explicit FifoCache(std::size_t lines) : index_(lines) {}

  void reset() override {
    index_.clear();
    next_ = 0;
    full_ = false;
    reset_counters();
  }

  std::size_t capacity() const override { return index_.lines(); }
  std::string name() const override { return "fifo"; }

  bool contains(core::BlockId block) const override {
    return index_.find(block) != BlockIndex::kNoSlot;
  }

 protected:
  bool lookup_and_insert(core::BlockId block) override {
    if (index_.find(block) != BlockIndex::kNoSlot) return false;
    if (full_) index_.evict(next_);
    index_.insert(next_, block);
    if (++next_ == index_.lines()) {
      next_ = 0;
      full_ = true;
    }
    return true;
  }

 private:
  BlockIndex index_;
  /// The ring slot the next miss fills: the oldest once the ring is full.
  std::uint32_t next_ = 0;
  bool full_ = false;
};

}  // namespace

std::unique_ptr<CacheModel> make_fifo(std::size_t lines) {
  return std::make_unique<FifoCache>(lines);
}

}  // namespace wsf::cache
