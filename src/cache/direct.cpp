#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.hpp"
#include "support/check.hpp"

namespace wsf::cache {
namespace {

/// Direct-mapped cache: block b lives only in line (b mod C).
class DirectMappedCache final : public CacheModel {
 public:
  explicit DirectMappedCache(std::size_t lines)
      : lines_(lines), slot_(lines, core::kNoBlock) {
    WSF_REQUIRE(lines_ > 0, "cache needs at least one line");
  }

  void reset() override {
    slot_.assign(lines_, core::kNoBlock);
    reset_counters();
  }

  std::size_t capacity() const override { return lines_; }

  bool contains(core::BlockId block) const override {
    return slot_[index(block)] == block;
  }

 protected:
  bool lookup_and_insert(core::BlockId block) override {
    auto& line = slot_[index(block)];
    if (line == block) return false;
    line = block;
    return true;
  }

 private:
  std::size_t index(core::BlockId block) const {
    // Blocks are non-negative in practice (generators allocate small ids);
    // fold the sign bit away to keep the index valid for any input.
    const auto u = static_cast<std::uint64_t>(block);
    return static_cast<std::size_t>(u % lines_);
  }

  std::size_t lines_;
  std::vector<core::BlockId> slot_;
};

}  // namespace

std::unique_ptr<CacheModel> make_direct_mapped(std::size_t lines) {
  return std::make_unique<DirectMappedCache>(lines);
}

}  // namespace wsf::cache
