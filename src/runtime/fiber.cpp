#include "runtime/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <utility>

// AddressSanitizer cannot follow a stack switch on its own: every switch must
// be bracketed with __sanitizer_start_switch_fiber / __sanitizer_finish_
// switch_fiber or ASan reports bogus stack-buffer-overflows from the foreign
// stack (and its fake-stack GC may free live frames). The macros below
// compile to nothing outside ASan builds.
#if defined(__SANITIZE_ADDRESS__)
#define WSF_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define WSF_ASAN_FIBERS 1
#endif
#endif

// A finished fiber's trampoline frame never returns, so its redzones stay
// poisoned in ASan's shadow of the stack; WSF_ASAN_UNPOISON clears such
// stale poison before memory is written outside any frame (a rebound
// fiber's initial frame) or handed back to the system.
#ifdef WSF_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#define WSF_ASAN_START_SWITCH(save, bottom, size) \
  __sanitizer_start_switch_fiber((save), (bottom), (size))
#define WSF_ASAN_FINISH_SWITCH(saved, bottom, size) \
  __sanitizer_finish_switch_fiber((saved), (bottom), (size))
#define WSF_ASAN_UNPOISON(addr, size) \
  __asan_unpoison_memory_region((addr), (size))
#else
#define WSF_ASAN_START_SWITCH(save, bottom, size) ((void)0)
#define WSF_ASAN_FINISH_SWITCH(saved, bottom, size) ((void)0)
#define WSF_ASAN_UNPOISON(addr, size) ((void)0)
#endif

// ThreadSanitizer likewise needs each stack switch announced through
// __tsan_switch_to_fiber, or every stolen continuation looks like a data
// race (control transfer through the deque is invisible to it).
#if defined(__SANITIZE_THREAD__)
#define WSF_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define WSF_TSAN_FIBERS 1
#endif
#endif

#ifdef WSF_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#define WSF_TSAN_CREATE() __tsan_create_fiber(0)
#define WSF_TSAN_DESTROY(f) __tsan_destroy_fiber(f)
#define WSF_TSAN_CURRENT() __tsan_get_current_fiber()
#define WSF_TSAN_SWITCH(f) __tsan_switch_to_fiber((f), 0)
#else
#define WSF_TSAN_CREATE() nullptr
#define WSF_TSAN_DESTROY(f) ((void)0)
#define WSF_TSAN_CURRENT() nullptr
#define WSF_TSAN_SWITCH(f) ((void)0)
#endif

#if defined(__x86_64__)

// The x86-64 System V context switch, as top-level asm (the project is
// C++-only, so it has no assembler source files).
//
// wsf_fiber_switch(void** save_sp, void* load_sp) pushes everything the ABI
// makes callee-saved — rbx, rbp, r12-r15, and the control bits of MXCSR and
// the x87 control word — stores the stack pointer to *save_sp, loads
// load_sp, pops the same frame from there and returns into whatever pushed
// it. Caller-saved registers need no saving: to the compiler this is an
// ordinary opaque call. The frame, from the saved stack pointer up:
//   +0 x87 control word  +8 MXCSR  +16 r15  +24 r14  +32 r13  +40 r12
//   +48 rbx  +56 rbp  +64 return address
//
// wsf_fiber_entry is where a fresh fiber's first switch returns to (resume()
// builds that frame): it calls the trampoline held in r13 with the Fiber*
// held in r12. Its CFI marks the return address undefined, so unwinders and
// debuggers stop at the base of the fiber stack.
//
// CET shadow stacks (opt-in in glibc) are not supported: the shadow stack
// never saw the calls these rets return from.
asm(R"(
  .pushsection .text
  .p2align 4
  .globl wsf_fiber_switch
  .hidden wsf_fiber_switch
  .type wsf_fiber_switch, @function
wsf_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  fldcw (%rsp)
  ldmxcsr 8(%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size wsf_fiber_switch, .-wsf_fiber_switch

  .p2align 4
  .globl wsf_fiber_entry
  .hidden wsf_fiber_entry
  .type wsf_fiber_entry, @function
wsf_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size wsf_fiber_entry, .-wsf_fiber_entry
  .popsection
)");

extern "C" {
__attribute__((visibility("hidden"))) void wsf_fiber_switch(void** save_sp,
                                                            void* load_sp);
__attribute__((visibility("hidden"))) void wsf_fiber_entry();
}

#endif  // __x86_64__

namespace wsf::runtime {

namespace {

/// Saves the running context into *from and continues *to.
inline void switch_context(Fiber::Context* from, Fiber::Context* to) {
#if defined(__x86_64__)
  wsf_fiber_switch(&from->sp, to->sp);
#else
  WSF_CHECK(swapcontext(from, to) == 0, "swapcontext failed");
#endif
}

}  // namespace

Fiber::Fiber(FiberFn fn, std::size_t stack_bytes) : fn_(std::move(fn)) {
  WSF_REQUIRE(stack_bytes >= 16 * 1024, "fiber stack too small");
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  stack_bytes_ = (stack_bytes + page - 1) / page * page;
  mapping_bytes_ = stack_bytes_ + page;
  void* m = mmap(nullptr, mapping_bytes_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  WSF_CHECK(m != MAP_FAILED, "fiber stack allocation failed");
  mapping_ = static_cast<char*>(m);
  // Stacks grow down: the guard page is the lowest page of the mapping.
  WSF_CHECK(mprotect(mapping_, page, PROT_NONE) == 0,
            "fiber guard page protection failed");
  stack_ = mapping_ + page;
  tsan_fiber_ = WSF_TSAN_CREATE();
}

Fiber::~Fiber() {
  WSF_CHECK(!started_ || finished_,
            "destroying a live fiber (suspended mid-execution)");
  WSF_TSAN_DESTROY(tsan_fiber_);
  WSF_ASAN_UNPOISON(stack_, stack_bytes_);
  WSF_CHECK(munmap(mapping_, mapping_bytes_) == 0,
            "fiber stack release failed");
}

void Fiber::rebind(FiberFn fn) {
  WSF_REQUIRE(!started_ || finished_, "rebind of a live fiber");
  fn_ = std::move(fn);
  started_ = false;
  finished_ = false;
  return_to_ = nullptr;
  exit_to_ = nullptr;
}

// Every switch into a fiber lands in one of three places: the trampoline's
// first instructions (a fresh fiber), or the return from switch_out() inside
// suspend() or switch_into(). Each completes the switch for ASan here. A
// switch from a native context (resume) tells ASan the resumer's stack
// extent, which this fiber's next suspend() announces; after a direct switch
// that extent names the previous fiber's stack, so it is not taken: the
// switching fiber handed over its own return context's extent instead.
__attribute__((always_inline)) inline void Fiber::finish_landing(
    [[maybe_unused]] void* fake_stack) {
  WSF_ASAN_FINISH_SWITCH(fake_stack,
                         entered_directly_ ? nullptr : &resumer_stack_,
                         entered_directly_ ? nullptr : &resumer_size_);
}

#if defined(__x86_64__)
void Fiber::trampoline(Fiber* self) {
#else
void Fiber::trampoline(unsigned hi, unsigned lo) {
  auto* self = reinterpret_cast<Fiber*>(
      (static_cast<std::uintptr_t>(hi) << 32) |
      static_cast<std::uintptr_t>(lo));
#endif
  // First instructions on the fiber stack: complete the switch that started
  // this fiber. Nothing may run before this — in particular no call ASan
  // could treat as noreturn, whose stack unpoisoning would still use the
  // previous stack's bounds.
  self->finish_landing(nullptr);
  self->fn_();
  // Returning would fall off the base of the fiber stack; instead mark
  // finished and switch away for good — into the exit_into() target, or
  // back to the return context. The nullptr fake-stack save lets ASan
  // release this fiber's frames.
  self->finished_ = true;
  self->switch_out(nullptr, self->exit_to_);  // never returns
  WSF_CHECK(false, "resumed a finished fiber");
}

void Fiber::start_if_fresh() {
  if (started_) return;
  started_ = true;
#if defined(__x86_64__)
  // The 9 words wsf_fiber_switch pops (see above) under 2 words of
  // padding, so that its ret enters wsf_fiber_entry with the stack 16-byte
  // aligned, as after a call: the entry stub's own call then gives the
  // trampoline the ABI's entry alignment. A fresh fiber inherits the
  // floating-point control state of the context that starts it, as it would
  // with makecontext; rbp = 0 ends frame-pointer backtraces here.
  //
  // One plain store per popped word, and the padding left as it is: the
  // switch reads exactly these 9 words. GCC compiles a std::fill or memset
  // of the frame to `rep stosq`, whose startup cost was about a third of a
  // 1-worker spawn/touch.
  constexpr std::size_t kFrameWords = 11;
  std::uint32_t mxcsr = 0;
  std::uint16_t fpu_cw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpu_cw));
  auto* top = reinterpret_cast<std::uintptr_t*>(stack_ + stack_bytes_);
  std::uintptr_t* frame = top - kFrameWords;
  WSF_ASAN_UNPOISON(frame, kFrameWords * sizeof(std::uintptr_t));
  frame[0] = fpu_cw;
  frame[1] = mxcsr;
  frame[2] = 0;                                                   // r15
  frame[3] = 0;                                                   // r14
  frame[4] = reinterpret_cast<std::uintptr_t>(&trampoline);       // r13
  frame[5] = reinterpret_cast<std::uintptr_t>(this);              // r12
  frame[6] = 0;                                                   // rbx
  frame[7] = 0;                                                   // rbp
  frame[8] = reinterpret_cast<std::uintptr_t>(&wsf_fiber_entry);  // ret
  context_.sp = frame;
#else
  WSF_CHECK(getcontext(&context_) == 0, "getcontext failed");
  context_.uc_stack.ss_sp = stack_;
  context_.uc_stack.ss_size = stack_bytes_;
  context_.uc_link = nullptr;
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::trampoline),
              2, static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self & 0xffffffffu));
#endif
}

void Fiber::resume(Context* from) {
  WSF_REQUIRE(!finished_, "resume of a finished fiber");
  return_to_ = from;
  entered_directly_ = false;
  start_if_fresh();
  resumer_tsan_ = WSF_TSAN_CURRENT();
  // The resumer's fake stack is saved on the resumer's own stack: the
  // context that comes back may be another fiber, and by then this one may
  // be finished and rebound on another thread.
  [[maybe_unused]] void* fake_stack = nullptr;
  WSF_ASAN_START_SWITCH(&fake_stack, stack_, stack_bytes_);
  WSF_TSAN_SWITCH(tsan_fiber_);
  switch_context(from, &context_);
  // Back on the resumer's stack: this fiber, or one it switched into
  // directly, suspended or finished. Touch no member of `this` here.
  WSF_ASAN_FINISH_SWITCH(fake_stack, nullptr, nullptr);
}

void Fiber::switch_out([[maybe_unused]] void** fake_stack_save,
                       Fiber* next) {
  if (next == nullptr) {
    WSF_ASAN_START_SWITCH(fake_stack_save, resumer_stack_, resumer_size_);
    WSF_TSAN_SWITCH(resumer_tsan_);
    switch_context(&context_, return_to_);
    return;
  }
  WSF_REQUIRE(next != this && !next->finished_,
              "switch into a finished or running fiber");
  // The return context moves with the switch: the native context it names,
  // its stack extent for ASan and its TSan fiber.
  next->return_to_ = return_to_;
  next->resumer_stack_ = resumer_stack_;
  next->resumer_size_ = resumer_size_;
  next->resumer_tsan_ = resumer_tsan_;
  next->entered_directly_ = true;
  next->start_if_fresh();
  WSF_ASAN_START_SWITCH(fake_stack_save, next->stack_, next->stack_bytes_);
  WSF_TSAN_SWITCH(next->tsan_fiber_);
  switch_context(&context_, &next->context_);
}

void Fiber::suspend() {
  [[maybe_unused]] void* fake_stack = nullptr;
  switch_out(&fake_stack, nullptr);
  // Resumed again, possibly from a different worker thread or straight from
  // another fiber.
  finish_landing(fake_stack);
}

void Fiber::switch_into(Fiber& next) {
  [[maybe_unused]] void* fake_stack = nullptr;
  switch_out(&fake_stack, &next);
  finish_landing(fake_stack);
}

}  // namespace wsf::runtime
