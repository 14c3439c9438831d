// Stackful fibers with pooled, guard-paged stacks.
//
// The runtime runs every task on its own fiber so that (a) under the
// future-first policy a spawn can suspend the parent mid-function and push
// its continuation onto the deque (work-first semantics, the policy the
// paper recommends), and (b) a touch of an unresolved future can park the
// consumer without blocking the worker thread.
//
// On x86-64 a switch is a hand-written System V register swap (fiber.cpp):
// it saves the callee-saved registers, MXCSR and the x87 control word on the
// current stack and exchanges stack pointers — no system call, unlike
// glibc's swapcontext, which also saves the signal mask. Other
// architectures fall back to ucontext.
//
// Fibers may be resumed by a *different* worker thread than the one that
// suspended them (stolen continuations). A switch does not switch TLS, so
// any code running inside a fiber must re-read its current worker through a
// noinline accessor after every suspension point; the scheduler does this
// for the user.
//
// Each stack sits above a PROT_NONE guard page, so a task that recurses past
// its stack dies with SIGSEGV at the overflow instead of corrupting the heap.
#pragma once

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <cstddef>
#include <cstdint>
#include "support/move_only_function.hpp"

#include "support/check.hpp"

namespace wsf::runtime {

/// Entry function a fiber executes; when it returns, the fiber is finished.
using FiberFn = support::MoveOnlyFunction<void()>;

/// A suspendable execution context with its own mmap'ed stack.
/// Lifecycle: created bound to a function, switched into from a native
/// (worker) context, may suspend back any number of times, and finishes by
/// returning. Stacks are reusable through rebind().
class Fiber {
 public:
  /// Where a switch leaves the state of the context it switched away from:
  /// on x86-64 the saved stack pointer (the registers sit on that stack),
  /// elsewhere a ucontext_t.
#if defined(__x86_64__)
  struct Context {
    void* sp = nullptr;
  };
#else
  using Context = ucontext_t;
#endif

  /// Creates a fiber with a fresh stack of at least `stack_bytes` (rounded
  /// up to whole pages), plus one guard page below it.
  Fiber(FiberFn fn, std::size_t stack_bytes);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Reinitializes a *finished* fiber with a new entry function, reusing its
  /// stack — the scheduler's stack pool in one call.
  void rebind(FiberFn fn);

  /// Switches from the caller's native context into the fiber, saving the
  /// caller's state in `*from`. Returns when the fiber suspends or finishes.
  /// Must not be called from inside a fiber.
  void resume(Context* from);

  /// Suspends the fiber, switching back to the context that resumed it.
  /// Must be called from inside this fiber.
  void suspend();

  bool finished() const { return finished_; }

  /// Scheduler scratch: an opaque pointer slot the owner may use (e.g. to
  /// chain parked fibers).
  void* user_data = nullptr;
  /// A second scratch slot (the scheduler keeps the work item the fiber is
  /// running here).
  void* user_item = nullptr;

 private:
#if defined(__x86_64__)
  static void trampoline(Fiber* self);
#else
  static void trampoline(unsigned hi, unsigned lo);
#endif

  FiberFn fn_;
  Context context_{};
  Context* return_to_ = nullptr;
  char* mapping_ = nullptr;  // guard page + stack, as mmap'ed
  std::size_t mapping_bytes_ = 0;
  char* stack_ = nullptr;  // lowest usable stack byte (above the guard)
  std::size_t stack_bytes_ = 0;
  bool started_ = false;
  bool finished_ = false;

  // AddressSanitizer fiber-switch bookkeeping (see fiber.cpp). Declared
  // unconditionally so sanitized and plain translation units agree on the
  // layout; unused outside ASan builds.
  void* resumer_fake_stack_ = nullptr;
  void* fiber_fake_stack_ = nullptr;
  const void* resumer_stack_ = nullptr;
  std::size_t resumer_size_ = 0;

  // ThreadSanitizer fiber contexts (see fiber.cpp); unused outside TSan.
  void* tsan_fiber_ = nullptr;
  void* resumer_tsan_ = nullptr;
};

}  // namespace wsf::runtime
