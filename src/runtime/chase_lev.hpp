// Lock-free work-stealing deque (Chase & Lev, SPAA'05), with the C11
// memory-order discipline of Lê, Pop, Cohen & Zappa Nardelli (PPoPP'13).
//
// The owner pushes and pops at the bottom; thieves steal from the top —
// exactly the parsimonious discipline of the paper's Section 3. Elements are
// raw pointers (the scheduler owns object lifetimes).
//
// Memory reclamation: grown arrays are retired to a list and freed when the
// deque is destroyed. A thief may still be reading a retired array, so
// retiring (rather than freeing) is required for safety; the transient extra
// memory is bounded by 2x the peak deque size.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/check.hpp"

namespace wsf::runtime {

template <typename T>
class ChaseLevDeque {
  static_assert(std::is_pointer_v<T>, "deque elements must be pointers");

 public:
  explicit ChaseLevDeque(std::size_t initial_capacity = 64)
      : array_(new Array(round_up(initial_capacity))) {}

  ChaseLevDeque(const ChaseLevDeque&) = delete;
  ChaseLevDeque& operator=(const ChaseLevDeque&) = delete;

  ~ChaseLevDeque() {
    // relaxed: destruction requires external quiescence (no concurrent
    // owner or thieves), so no ordering is carried here.
    delete array_.load(std::memory_order_relaxed);
    for (Array* a : retired_) delete a;
  }

  /// Owner-only: push onto the bottom.
  void push_bottom(T value) {
    // relaxed: bottom_ is only ever written by the owner — this thread.
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    // acquire pairs with thieves' CAS-release on top_: the owner must see
    // a stolen slot as free before it can overwrite it after wraparound.
    const std::int64_t t = top_.load(std::memory_order_acquire);
    // relaxed: array_ is replaced only by the owner (grow), so the owner
    // always sees its own latest store.
    Array* a = array_.load(std::memory_order_relaxed);
    if (b - t > static_cast<std::int64_t>(a->capacity) - 1) {
      a = grow(a, t, b);
    }
    a->put(b, value);
    // A release *store* (not Lê et al.'s release fence + relaxed store): the
    // orderings are equivalent for this publish, and ThreadSanitizer does not
    // model fences, so the fence form makes every steal look like a race on
    // the element's payload.
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner-only: pop from the bottom. Returns nullptr when empty.
  T pop_bottom() {
    // relaxed ×2: owner-written index, owner-replaced array (see
    // push_bottom) — the owner reads only its own stores here.
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Array* a = array_.load(std::memory_order_relaxed);  // see above
    // relaxed store + seq_cst fence (Lê et al. Fig. 1): the fence makes
    // the bottom_ decrement and the top_ read below a single point in the
    // total order against steal_top's fence, so owner and thief cannot
    // both see the *other*'s index as unmoved and take the same element.
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);  // see above
    // relaxed: the fence above already orders this read; the CAS below
    // revalidates top_ before anything irrevocable happens.
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t > b) {
      // Deque was empty; restore. relaxed: owner-only index.
      bottom_.store(b + 1, std::memory_order_relaxed);
      return nullptr;
    }
    T value = a->get(b);
    if (t == b) {
      // Last element: race against thieves for it. seq_cst success keeps
      // the CAS in the same total order as the fences; relaxed failure is
      // enough because losing means a thief's seq_cst CAS already won.
      if (!top_.compare_exchange_strong(t, t + 1,
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        value = nullptr;  // a thief won
      }
      // relaxed: owner-only index.
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return value;
  }

  /// Thief: steal from the top. Returns nullptr on empty or lost race.
  T steal_top() {
    // acquire: pairs with competing thieves' CAS-release so this thief
    // reads element slots no earlier than the top_ it based them on.
    std::int64_t t = top_.load(std::memory_order_acquire);
    // seq_cst fence: the counterpart of pop_bottom's fence — orders this
    // thief's top_ read against the owner's in-flight bottom_ decrement.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    // acquire pairs with push_bottom's release store of bottom_: observing
    // the new bottom_ makes the pushed element's payload visible (TSan
    // models this pairing; a fence-based publish would not be seen).
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return nullptr;
    // consume (≥ acquire on every implementation): pairs with grow()'s
    // release store — the thief must see the copied elements in the
    // replacement array, and only data-dependent loads follow.
    Array* a = array_.load(std::memory_order_consume);
    T value = a->get(t);
    // seq_cst success: the claim must join the fence total order so the
    // owner's last-element CAS and this one cannot both succeed. relaxed
    // failure: a lost race returns nullptr without using any loaded data.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;  // lost the race
    }
    return value;
  }

  /// Thief: steal up to `max_n` items from the top (the caller sizes the
  /// claim; see core::steal_claim). Claimed items are appended to `out`
  /// oldest-first; returns the number claimed (0 on empty or a lost first
  /// race).
  ///
  /// Why not one batch CAS (top += k)? With an owner that pops at the
  /// bottom, a multi-item claim cannot be validated: owner pops of the
  /// elements in (t, t+k) never touch top_, so a thief's successful CAS
  /// t -> t+k can believe it owns items the owner already ran. (Deques
  /// whose *owner* CASes the steal index — e.g. FIFO runqueues — don't
  /// have this hazard; a bottom-popping Chase–Lev deque does.) For the
  /// same reason each claim must re-read bottom_ behind a seq_cst fence:
  /// a loop that only CASes top_ per item can still consume an element a
  /// concurrent owner free-pop already took. So the batch is a strict
  /// composition of the proven steal_top protocol — it amortizes victim
  /// selection and the thief's re-dispatch, not the claim itself — and
  /// stops at the first lost race or empty observation.
  std::size_t steal_batch(std::vector<T>& out, std::size_t max_n) {
    std::size_t got = 0;
    while (got < max_n) {
      T value = steal_top();
      if (value == nullptr) break;  // emptied, or lost a race — stop here
      out.push_back(value);
      ++got;
    }
    return got;
  }

  /// Racy size estimate: thieves size their claims and probe victims with
  /// it, and claim only through steal_top.
  std::size_t size_estimate() const {
    // relaxed ×2: an advisory probe; staleness is acceptable by contract
    // and no payload is read based on these indices.
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);  // ditto
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

  bool empty_estimate() const { return size_estimate() == 0; }

 private:
  struct Array {
    explicit Array(std::size_t cap) : capacity(cap), mask(cap - 1) {
      slots = new std::atomic<T>[cap];
    }
    ~Array() { delete[] slots; }
    // Slot accesses are relaxed: element visibility rides on the index
    // publications (push_bottom's release store of bottom_, grow()'s
    // release store of array_) — a slot is read only under an index the
    // reader obtained through one of those.
    T get(std::int64_t i) const {
      return slots[i & static_cast<std::int64_t>(mask)].load(
          std::memory_order_relaxed);  // see the slot-access comment above
    }
    void put(std::int64_t i, T v) {
      slots[i & static_cast<std::int64_t>(mask)].store(
          v, std::memory_order_relaxed);  // see the slot-access comment above
    }
    std::size_t capacity;
    std::size_t mask;
    std::atomic<T>* slots;
  };

  static std::size_t round_up(std::size_t n) {
    std::size_t c = 8;
    while (c < n) c <<= 1;
    return c;
  }

  Array* grow(Array* old, std::int64_t t, std::int64_t b) {
    auto* bigger = new Array(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    // release publishes the copied elements with the new array pointer;
    // pairs with steal_top's consume load.
    array_.store(bigger, std::memory_order_release);
    retired_.push_back(old);
    return bigger;
  }

  friend struct ChaseLevAudit;

  // top_ is CAS-hammered by thieves; bottom_ is the owner's hot index;
  // array_ changes only on grow but is loaded on every operation. Each owns
  // a cache line so a steal never invalidates the owner's push/pop line and
  // a push never bounces the thieves' top_ line (ChaseLevAudit verifies).
  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  alignas(64) std::atomic<Array*> array_;
  std::vector<Array*> retired_;  // owner-only (grow happens on the owner)
};

/// Compile-time false-sharing audit of the deque's shared indices.
/// offsetof on a non-standard-layout class is conditionally-supported; GCC
/// and Clang both evaluate it for this layout, so only the warning needs
/// suppressing.
struct ChaseLevAudit {
  using Deque = ChaseLevDeque<void*>;
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
  static constexpr std::size_t top = offsetof(Deque, top_);
  static constexpr std::size_t bottom = offsetof(Deque, bottom_);
  static constexpr std::size_t array = offsetof(Deque, array_);
#pragma GCC diagnostic pop
};

static_assert(alignof(ChaseLevDeque<void*>) == 64,
              "deque must start on a cache line");
static_assert(ChaseLevAudit::top / 64 != ChaseLevAudit::bottom / 64,
              "thief index and owner index must not share a cache line");
static_assert(ChaseLevAudit::bottom / 64 != ChaseLevAudit::array / 64 &&
                  ChaseLevAudit::top / 64 != ChaseLevAudit::array / 64,
              "array pointer must not share a line with either index");

}  // namespace wsf::runtime
