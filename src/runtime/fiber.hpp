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
// A fiber can also switch straight into another fiber, fresh or suspended,
// and a finishing fiber can exit into another one (switch_into, exit_into):
// the scheduler's spawn and finish paths pass between a parent and its
// child this way without visiting the worker's native context. The fiber
// switched into takes over the switching fiber's return context, so its
// next suspend() still lands in the native context that resumed the first
// fiber of the chain.
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
/// (worker) context or from another fiber, may suspend back any number of
/// times, and finishes by returning. Stacks are reusable through rebind().
/// Cache-line aligned: every switch writes both fibers involved, and pooled
/// fibers move between worker threads, so two fibers in use on different
/// workers must never share a line.
class alignas(64) Fiber {
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

  /// Suspends the fiber, switching back to its return context: the native
  /// context that resumed it, or the one it took over from the fiber that
  /// switched into it. Must be called from inside this fiber.
  void suspend();

  /// Suspends this fiber, which must be the one running, and switches
  /// straight into `next`, fresh or suspended. `next` takes over this
  /// fiber's return context. Returns when this fiber is resumed or switched
  /// into again, possibly on another thread.
  void switch_into(Fiber& next);

  /// Makes this fiber, when its function returns, switch straight into
  /// `next` (fresh or suspended) instead of back to its return context,
  /// which `next` takes over. Must be called from inside this fiber; rebind()
  /// clears it.
  void exit_into(Fiber& next) { exit_to_ = &next; }

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
  /// Builds a fresh fiber's first frame; a no-op once it has started.
  void start_if_fresh();
  /// Switches from this running fiber into `next`, which takes over this
  /// fiber's return context, or back to that context when `next` is null.
  void switch_out(void** fake_stack_save, Fiber* next);
  /// Completes a switch that landed in this fiber (see fiber.cpp).
  void finish_landing(void* fake_stack);

  FiberFn fn_;
  Context context_{};
  /// The return context: where suspend() and a plain finish switch to.
  Context* return_to_ = nullptr;
  /// Set by exit_into().
  Fiber* exit_to_ = nullptr;
  char* mapping_ = nullptr;  // guard page + stack, as mmap'ed
  std::size_t mapping_bytes_ = 0;
  char* stack_ = nullptr;  // lowest usable stack byte (above the guard)
  std::size_t stack_bytes_ = 0;
  bool started_ = false;
  bool finished_ = false;

  /// True when the last switch into this fiber came from another fiber,
  /// which handed its return context over, and false after resume().
  bool entered_directly_ = false;

  // The return context's stack extent for AddressSanitizer (see fiber.cpp).
  // Declared unconditionally so sanitized and plain translation units agree
  // on the layout; unused outside ASan builds.
  const void* resumer_stack_ = nullptr;
  std::size_t resumer_size_ = 0;

  // ThreadSanitizer fiber contexts, this fiber's own and the return
  // context's (see fiber.cpp); unused outside TSan.
  void* tsan_fiber_ = nullptr;
  void* resumer_tsan_ = nullptr;
};

}  // namespace wsf::runtime
