// Futures for the work-stealing runtime, with single-touch enforcement.
//
// A Future<T> is created by wsf::runtime::spawn and consumed exactly once by
// touch() (Definition 2 — the discipline the paper shows preserves cache
// locality; the runtime enforces it at run time). touch() never blocks the
// worker thread: an unresolved touch parks the consumer fiber, and the
// producer resumes it directly when the value arrives (the eager-resume /
// TouchFirst rule).
//
// Synchronization protocol (one word per future):
//   state == kEmpty : value not produced, nobody waiting
//   state == kReady : value produced
//   otherwise       : Fiber* of the parked consumer
// The consumer publishes its fiber *from the scheduler context after it has
// fully suspended* (see Worker::publish_pending_park), which closes the
// resume-before-suspend race; producer and consumer linearize on one
// exchange/CAS pair.
//
// Ownership: a spawned or submitted task is one heap block (detail::Task in
// pool.hpp) holding its deque work item, this state and the closure. The
// block has two references: the producing task's, dropped right after it
// publishes its result (or by the scheduler when the task will never run),
// and the consuming Future's or JobHandle's, dropped when the handle is
// destroyed or reassigned, or when touch() returns. Whichever side releases
// last frees the block.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <utility>

#include "support/check.hpp"

namespace wsf::runtime {

class Fiber;
class Scheduler;

namespace detail {

inline constexpr std::uintptr_t kEmpty = 0;
inline constexpr std::uintptr_t kReady = 1;

/// Type-erased part of the shared state; the scheduler interacts with
/// futures only through this.
struct FutureStateBase {
  std::atomic<std::uintptr_t> state{kEmpty};
  std::exception_ptr error;
  /// References to the enclosing task block: the producer's and the
  /// consumer's (see the header). Unused by states that are not part of a
  /// task block, such as the graph replay's touch events.
  std::atomic<std::uint32_t> refs{2};

  virtual ~FutureStateBase() = default;

  /// Drops one reference; the last one frees the whole block (the virtual
  /// destructor reaches the enclosing task).
  void release() {
    // acq_rel: the release half orders this side's accesses to the block
    // (the producer's result and publish, the consumer's take) before its
    // decrement; the acquire half makes whichever side frees the block see
    // the other side's accesses first, so the destructor races with none.
    if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }

  bool ready() const {
    // acquire pairs with publish_ready's release half: observing kReady
    // makes the produced value (FutureState::storage, error) visible to
    // the consumer that goes on to take() it.
    return state.load(std::memory_order_acquire) == kReady;
  }

  /// Producer side: publish readiness; returns the parked consumer fiber to
  /// resume, or nullptr if none was waiting.
  Fiber* publish_ready() {
    // acq_rel: the release half publishes the produced value to consumers
    // (ready()'s acquire / try_park's acquire-on-failure); the acquire half
    // pairs with try_park's release so the producer sees the parked fiber's
    // fully-suspended state before resuming it.
    const std::uintptr_t prev =
        state.exchange(kReady, std::memory_order_acq_rel);
    if (prev == kEmpty || prev == kReady) return nullptr;
    return reinterpret_cast<Fiber*>(prev);
  }

  /// Consumer side (called from the scheduler after the consumer fiber
  /// suspended): try to park `f`. Returns false when the value arrived in
  /// the meantime and the fiber should be resumed immediately.
  bool try_park(Fiber* f) {
    std::uintptr_t expected = kEmpty;
    // success release: publishes the suspended fiber's saved context to the
    // producer (publish_ready's acquire half). failure acquire: the value
    // already arrived — pairs with publish_ready's release half so the
    // immediate resume path sees the payload.
    return state.compare_exchange_strong(
        expected, reinterpret_cast<std::uintptr_t>(f),
        std::memory_order_release, std::memory_order_acquire);
  }
};

template <typename T>
struct FutureState : FutureStateBase {
  alignas(T) unsigned char storage[sizeof(T)];

  template <typename U>
  void emplace(U&& v) {
    ::new (static_cast<void*>(storage)) T(std::forward<U>(v));
  }
  T take() {
    T* p = std::launder(reinterpret_cast<T*>(storage));
    T v = std::move(*p);
    p->~T();
    return v;
  }
  ~FutureState() override {
    // If the value was produced but never consumed, destroy it here.
    if (ready() && !error && !taken) {
      std::launder(reinterpret_cast<T*>(storage))->~T();
    }
  }
  bool taken = false;
};

template <>
struct FutureState<void> : FutureStateBase {};

/// Deleter that drops a handle's reference instead of deleting.
struct ReleaseRef {
  void operator()(FutureStateBase* state) const { state->release(); }
};

/// A consumer's reference to a task block's state, as Future and JobHandle
/// hold it: a raw pointer that releases on destruction and reassignment.
template <typename T>
using StateRef = std::unique_ptr<FutureState<T>, ReleaseRef>;

/// Implemented in pool.cpp: parks the calling fiber until the state is
/// ready (counts the touch; may return immediately if already ready).
void wait_until_ready(FutureStateBase& state);

}  // namespace detail

/// Move-only handle to the result of a spawned task. Enforces the paper's
/// single-touch discipline: touching twice (or touching an empty handle)
/// throws wsf::CheckError.
template <typename T>
class Future {
 public:
  Future() = default;
  /// Adopts the consumer's reference to a task block's state.
  explicit Future(detail::FutureState<T>* state) : state_(state) {}

  Future(Future&&) noexcept = default;
  Future& operator=(Future&&) noexcept = default;
  Future(const Future&) = delete;
  Future& operator=(const Future&) = delete;

  /// True while this handle still holds an untouched future.
  bool valid() const { return state_ != nullptr; }

  /// Non-consuming readiness probe (for monitoring; the model's touch is
  /// the consuming operation below).
  bool ready() const { return state_ && state_->ready(); }

  /// Returns the task's result, parking the calling fiber until it is
  /// produced. Consumes the handle: a second touch throws.
  T touch() {
    WSF_REQUIRE(state_ != nullptr,
                "touch of an empty or already-touched future "
                "(single-touch discipline violated)");
    auto st = std::move(state_);
    detail::wait_until_ready(*st);
    if (st->error) std::rethrow_exception(st->error);
    if constexpr (!std::is_void_v<T>) {
      st->taken = true;
      return st->take();
    }
  }

 private:
  detail::StateRef<T> state_;
};

}  // namespace wsf::runtime
