// The resident set shared by the fully associative cache models (lru.cpp,
// fifo.cpp): C block slots plus an open-addressing index from block to slot.
// Both are allocated once in the constructor, so an access never allocates;
// the policies differ only in how they pick the slot a miss reuses.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/ids.hpp"
#include "support/check.hpp"

namespace wsf::cache {

class BlockIndex {
 public:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// C = `lines` slots; the index is the smallest power of two >= 2C, so it
  /// is at most half full and every probe run ends at an empty entry.
  explicit BlockIndex(std::size_t lines) {
    WSF_REQUIRE(lines > 0, "cache needs at least one line");
    WSF_REQUIRE(lines <= (std::size_t{1} << 30),
                "cache of " << lines << " lines is too large");
    std::size_t size = 2;
    shift_ = 63;
    while (size < 2 * lines) {
      size *= 2;
      --shift_;
    }
    mask_ = size - 1;
    blocks_.resize(lines);
    index_.assign(size, kNoSlot);
  }

  std::size_t lines() const { return blocks_.size(); }

  /// The slot holding `block`, or kNoSlot when it is not resident.
  std::uint32_t find(core::BlockId block) const {
    for (std::size_t i = home(block);; i = (i + 1) & mask_) {
      const std::uint32_t slot = index_[i];
      if (slot == kNoSlot || blocks_[slot] == block) return slot;
    }
  }

  /// Puts `block`, which must not be resident, into the free `slot`.
  void insert(std::uint32_t slot, core::BlockId block) {
    blocks_[slot] = block;
    std::size_t i = home(block);
    while (index_[i] != kNoSlot) i = (i + 1) & mask_;
    index_[i] = slot;
  }

  /// Drops the block held in `slot` from the index, freeing the slot.
  /// Backward-shift deletion: each later entry of the probe run moves into
  /// the hole unless its home lies cyclically in (hole, entry], so runs stay
  /// unbroken without tombstones.
  void evict(std::uint32_t slot) {
    std::size_t hole = home(blocks_[slot]);
    while (index_[hole] != slot) hole = (hole + 1) & mask_;
    for (std::size_t i = (hole + 1) & mask_; index_[i] != kNoSlot;
         i = (i + 1) & mask_) {
      const std::size_t h = home(blocks_[index_[i]]);
      if (((i - h) & mask_) >= ((i - hole) & mask_)) {
        index_[hole] = index_[i];
        hole = i;
      }
    }
    index_[hole] = kNoSlot;
  }

  /// Empties the index; every slot is free afterwards.
  void clear() { std::fill(index_.begin(), index_.end(), kNoSlot); }

 private:
  /// Fibonacci hashing: the top bits of the id times 2^64/phi, so the small
  /// consecutive ids generators allocate spread over the whole table.
  std::size_t home(core::BlockId block) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(block) * 0x9e3779b97f4a7c15ULL) >>
        shift_);
  }

  std::vector<core::BlockId> blocks_;
  std::vector<std::uint32_t> index_;
  std::size_t mask_ = 0;
  unsigned shift_ = 0;
};

}  // namespace wsf::cache
