// Cache models for the locality measurements (Section 3 of the paper).
//
// The paper's model: each processor has a fully associative cache of C lines
// with LRU replacement, and each DAG node accesses at most one memory block.
// The upper-bound results hold for all "simple" replacement policies (the
// footnote in Section 3, citing Acar et al.), so the suite also provides
// FIFO, direct-mapped, and set-associative LRU models; the CachePolicies
// tests re-run the lower-bound gadgets across them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "core/ids.hpp"

namespace wsf::cache {

/// Abstract cache: a set of lines, each holding one memory block.
/// Implementations define the replacement policy.
class CacheModel {
 public:
  virtual ~CacheModel() = default;

  /// Simulates an access to `block`. Returns true on a miss (the block was
  /// not resident; it is resident afterwards). Updates hit/miss counters.
  bool access(core::BlockId block);

  /// Evicts everything and zeroes the counters.
  virtual void reset() = 0;

  /// Number of lines (C in the paper's notation).
  virtual std::size_t capacity() const = 0;

  /// Human-readable policy name ("lru", "fifo", ...).
  virtual std::string name() const = 0;

  /// True if the block is currently resident (no counter update, no
  /// replacement side effects). Used by tests.
  virtual bool contains(core::BlockId block) const = 0;

  std::uint64_t misses() const { return misses_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t accesses() const { return misses_ + hits_; }

 protected:
  /// Policy-specific lookup+insert. Returns true on miss.
  virtual bool lookup_and_insert(core::BlockId block) = 0;

  void reset_counters() {
    misses_ = 0;
    hits_ = 0;
  }

 private:
  std::uint64_t misses_ = 0;
  std::uint64_t hits_ = 0;
};

inline bool CacheModel::access(core::BlockId block) {
  const bool miss = lookup_and_insert(block);
  if (miss)
    ++misses_;
  else
    ++hits_;
  return miss;
}

/// Fully associative LRU cache of `lines` lines — the paper's model. Like
/// every model here, it allocates its O(lines) state up front and nothing
/// per access.
std::unique_ptr<CacheModel> make_lru(std::size_t lines);

/// Fully associative FIFO cache.
std::unique_ptr<CacheModel> make_fifo(std::size_t lines);

/// Direct-mapped cache (line = block mod C).
std::unique_ptr<CacheModel> make_direct_mapped(std::size_t lines);

/// Set-associative cache with LRU within each set; `lines` must be a
/// multiple of `ways`.
std::unique_ptr<CacheModel> make_set_associative(std::size_t lines,
                                                 std::size_t ways);

/// Factory by policy name: "lru", "fifo", "direct", "assoc<W>" (e.g.
/// "assoc4"). Throws wsf::CheckError for unknown names.
std::unique_ptr<CacheModel> make_cache(const std::string& policy,
                                       std::size_t lines);

}  // namespace wsf::cache
