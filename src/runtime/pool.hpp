// The work-stealing scheduler: worker threads, fibers, spawn policies.
//
// This is the runtime counterpart of the paper's model:
//   * one Chase–Lev deque per worker (parsimonious work stealing, §3);
//   * core::ForkPolicy::FutureFirst — spawn switches from the parent's fiber
//     straight into the child's, and the child's first act is to push the
//     parent's continuation onto the deque bottom; the future thus runs
//     inline (work-first; the policy Theorem 8 recommends). A finishing
//     fiber switches straight into its parked consumer, or into the Resume
//     item it pops from its own deque when that belongs to the same job, so
//     a spawn nobody steals never visits the worker's scheduler context;
//     anything else (a steal took the parent, a fresh task, another job's
//     item) goes back through it;
//   * core::ForkPolicy::ParentFirst — spawn pushes the future task and the
//     parent continues (help-first; the policy Theorem 10 warns about);
//   * an unresolved touch parks the consumer fiber; the producer resumes it
//     directly when the value is ready (eager resume).
//
// Every task runs on its own fiber (pooled stacks), so continuations are
// first-class and can be stolen like any other work item.
//
// A task is one heap block (detail::Task): its deque work item, its future
// state and its closure. The work item is also its fiber's Resume item: a
// suspended fiber sits on at most one deque at a time, so pushing its
// continuation or waking it from a park reuses the item and allocates
// nothing. The closure's captures live until the block is freed, when both
// the task has finished and its Future or JobHandle is gone, not until the
// fiber's stack is next rebound. A spawn thus makes one heap allocation.
//
// The scheduler is a long-lived service: worker threads start once and then
// serve a *stream* of jobs. A job is one root closure plus everything it
// spawns; each job's completion is tracked independently, so concurrent
// submitters never wait on each other's work. The per-job count moves only
// when work leaves a worker: a finished task becomes a credit on its worker,
// the worker's next spawn of the same job spends it, and what is left is
// subtracted in one step when the worker runs out of local work or switches
// jobs. Admission goes through a FIFO inbox; idle workers park on a
// condition variable and are woken by admission, so a pool of idle
// schedulers costs ~no CPU.
//
// One-shot usage (unchanged):
//   Scheduler sched({.workers = 4, .policy = core::ForkPolicy::FutureFirst});
//   int r = sched.run([] {
//     auto f = spawn([] { return heavy(); });   // Future<int>
//     int local = other_work();
//     return f.touch() + local;
//   });
//
// Service usage:
//   auto h1 = sched.submit([] { return job_a(); });
//   auto h2 = sched.submit([] { return job_b(); });   // runs concurrently
//   use(h1.wait(), h2.wait());
//
// Reuse contract: submit()/run() may be called from any thread that is not
// a worker (use spawn() from inside a task); futures spawned by a job must
// be touched within that job; the destructor drains in-flight jobs before
// stopping the workers.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/policy.hpp"
#include "runtime/chase_lev.hpp"
#include "runtime/counters.hpp"
#include "runtime/fiber.hpp"
#include "runtime/future.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/thread_safety.hpp"

namespace wsf::runtime {

struct RuntimeOptions {
  /// Worker threads; 0 = hardware concurrency.
  std::uint32_t workers = 0;
  /// The same fork policy the simulator takes (sched::SimOptions::policy).
  core::ForkPolicy policy = core::ForkPolicy::FutureFirst;
  /// Stack bytes per fiber.
  std::size_t stack_bytes = 256 * 1024;
  /// Seed for victim selection.
  std::uint64_t seed = 0x5eed;
  /// How much a thief claims per successful steal: one task, or half the
  /// victim's estimated deque size rounded up, at most 16
  /// (core::steal_claim, the simulator's rule too).
  core::StealPolicy steal = core::StealPolicy::One;
  /// How a thief picks its victim: uniform random, last-victim affinity or
  /// nearest-neighbor scan (core::pick_victim, the simulator's chooser too,
  /// here on racy emptiness estimates).
  core::VictimPolicy victim = core::VictimPolicy::Uniform;
  /// Admission-inbox capacity in jobs; 0 = unbounded (the pre-backpressure
  /// behavior). With a bound, submission under a full inbox follows the
  /// caller's SubmitPolicy (Block / Reject / Timeout) — the service's
  /// memory and tail latency stay bounded under sustained overload.
  std::size_t inbox_capacity = 0;
};

class Scheduler;
class Batch;

/// Admission-inbox priority class. The inbox is a small priority-bucketed
/// FIFO: higher classes are taken first; admission order is preserved
/// within a class.
enum class JobPriority : std::uint8_t { High = 0, Normal = 1, Low = 2 };
inline constexpr std::size_t kNumJobPriorities = 3;

inline const char* to_string(JobPriority p) {
  switch (p) {
    case JobPriority::High: return "high";
    case JobPriority::Low: return "low";
    default: return "normal";
  }
}

/// What happened to a submitted job, observable via JobHandle::outcome()
/// once done().
enum class JobOutcome : std::uint8_t {
  Pending = 0,    ///< not yet done
  Completed = 1,  ///< ran to completion (result or exception available)
  Shed = 2,       ///< deadline expired before it started; never ran
  Abandoned = 3,  ///< its Batch was destroyed before submission; never ran
};

inline const char* to_string(JobOutcome o) {
  switch (o) {
    case JobOutcome::Completed: return "completed";
    case JobOutcome::Shed: return "shed";
    case JobOutcome::Abandoned: return "abandoned";
    default: return "pending";
  }
}

/// Per-job knobs passed at submission.
struct JobOptions {
  /// Snapshot every worker's counters at admission and report the job's
  /// delta through JobHandle::counters(). The delta is exact (and satisfies
  /// the WorkerCounters reconciliation identities) when the job had the
  /// scheduler to itself; with concurrent tenants it includes their events
  /// too. Costs one per-worker snapshot per job — leave off on hot
  /// admission paths.
  bool counters = false;
  /// Inbox priority class (irrelevant once the job reaches a deque: only
  /// admission order is prioritized, stealing stays uniform).
  JobPriority priority = JobPriority::Normal;
  /// Relative deadline from admission; 0 = none. A job still in the inbox
  /// past its deadline is shed at take-time: it never runs, its handle
  /// resolves with JobOutcome::Shed, and the shedding worker counts it in
  /// WorkerCounters::shed.
  std::chrono::microseconds deadline{0};
};

/// What a submitter does when the bounded inbox is full.
enum class SubmitPolicy : std::uint8_t {
  /// Wait (condition variable) until space frees; the wait is charged to
  /// AdmissionStats::blocked_us.
  Block,
  /// Fail fast: try_submit returns Rejected and the job never existed as
  /// far as the scheduler is concerned (the caller retries or backs off).
  Reject,
  /// Wait at most AdmitOptions::timeout, then fail with TimedOut.
  Timeout,
};

inline const char* to_string(SubmitPolicy p) {
  switch (p) {
    case SubmitPolicy::Reject: return "reject";
    case SubmitPolicy::Timeout: return "timeout";
    default: return "block";
  }
}

/// Admission knobs for try_submit. Plain submit() always uses Block.
struct AdmitOptions {
  SubmitPolicy policy = SubmitPolicy::Block;
  /// Bound for SubmitPolicy::Timeout.
  std::chrono::microseconds timeout{1000};
};

enum class SubmitStatus : std::uint8_t { Admitted, Rejected, TimedOut };

inline const char* to_string(SubmitStatus s) {
  switch (s) {
    case SubmitStatus::Rejected: return "rejected";
    case SubmitStatus::TimedOut: return "timed-out";
    default: return "admitted";
  }
}

/// Typed result of try_submit: the handle is valid only when admitted, so
/// a rejected submission is a value the caller can branch/retry on, not an
/// exception.
template <typename R>
class JobHandle;
template <typename R>
struct SubmitResult {
  SubmitStatus status = SubmitStatus::Admitted;
  JobHandle<R> handle;
  bool admitted() const { return status == SubmitStatus::Admitted; }
};

/// Submit-side admission statistics (process of record for everything the
/// per-worker counters cannot carry — these events happen on submitter
/// threads, so the cells are true multi-writer atomics, unlike the
/// single-writer WorkerCounters). Identities at quiescence:
///   submitted == admitted + rejected + timed_out
///   admitted  == completed + shed      (shed from WorkerCounters::shed)
struct AdmissionStats {
  std::uint64_t submitted = 0;  ///< jobs offered (attempts, retries counted)
  std::uint64_t admitted = 0;   ///< jobs that entered the inbox
  std::uint64_t rejected = 0;   ///< failed fast under SubmitPolicy::Reject
  std::uint64_t timed_out = 0;  ///< gave up under SubmitPolicy::Timeout
  std::uint64_t blocked_us = 0; ///< submitter wall time spent waiting for space
};

namespace detail {

/// Completion state of one submitted job (a root closure plus everything
/// it spawned). Owned by the submitting thread's JobHandle and by the
/// scheduler's keep_alive reference; the job's work items point at it with
/// a plain JobState*, so spawning copies no reference count on this one
/// allocation that every worker running the job touches.
/// Synchronization: `done` is the job's publication flag — the completing
/// worker writes every result field (latency_us, delta) *before* its
/// release-store of done, and readers (JobHandle) check done with an
/// acquire-load first, so those fields need no lock of their own.
/// want_counters/submitted/baseline are written once at admission, before
/// the job is visible to any worker, and read-only afterwards.
struct JobState {
  /// Invariant: outstanding == the job's unfinished tasks (the root counts
  /// as one) + the finish credits every worker holds for the job (see
  /// Worker::credits_). A spawn either spends one of its worker's credits
  /// or does a relaxed fetch_add(1) before the child is visible; a finish
  /// only adds a credit; Worker::flush_credits subtracts a worker's
  /// credits with one acq_rel fetch_sub (Scheduler::tasks_finished).
  /// Hence:
  ///   * the count reaches zero only at the last flush, after every task
  ///     has finished;
  ///   * a worker holding credits keeps the job alive, so its credit_job_
  ///     never dangles while it has credits;
  ///   * each finished task's effects happen-before its worker's next
  ///     flush (program order) or the finish of a later task its credit
  ///     paid for, which reaches other workers only through deque or future
  ///     synchronization; the last flush reads the release sequence of every
  ///     earlier RMW here, so it sees every task's effects.
  /// Increments are never deferred: a child stolen before its spawn was
  /// counted could finish and flush the count to zero while its parent
  /// still runs.
  std::atomic<std::uint64_t> outstanding{1};
  /// Set (release, under quiescent_mutex_ for the cv protocol) exactly
  /// once, by the completing worker or by Scheduler::abandon.
  std::atomic<bool> done{false};
  bool want_counters = false;
  /// Inbox priority class, fixed at admission.
  JobPriority priority = JobPriority::Normal;
  std::chrono::steady_clock::time_point submitted{};
  /// Absolute deadline (max() = none), computed from JobOptions::deadline
  /// at staging. Written once before the job is visible; read at take-time.
  std::chrono::steady_clock::time_point deadline{
      std::chrono::steady_clock::time_point::max()};
  /// Admission-to-completion latency, stamped at completion. Atomic so
  /// done()-polling readers racing completion stay well-defined; relaxed
  /// because the done flag's release/acquire pair publishes it.
  std::atomic<std::uint64_t> latency_us{0};
  /// Admission-to-first-run wait (queue time); kQueueUnset until the root
  /// task starts. Written exactly once, by the worker that starts the root
  /// (children only exist after the root ran, so there is a single writer);
  /// relaxed because done's release/acquire pair publishes the final value
  /// and in-flight polls only need a non-torn read.
  std::atomic<std::uint64_t> queue_us{kQueueUnset};
  static constexpr std::uint64_t kQueueUnset = ~std::uint64_t{0};
  /// How the job ended; written before done's release-store, so any reader
  /// that observed done sees the final outcome.
  std::atomic<JobOutcome> outcome{JobOutcome::Pending};
  /// Per-worker counter values at admission (want_counters only).
  std::vector<WorkerCounters> baseline;
  /// live − baseline at completion (want_counters only).
  CountersReport delta;
  /// The scheduler's reference to this state, so it outlives every work
  /// item even after all JobHandles are dropped. Set by make_job_state;
  /// released as the last statement of complete_job and finish_without_run,
  /// or by try_submit when admission fails. Once it is released, no worker
  /// may touch the job again.
  std::shared_ptr<JobState> keep_alive;
};

/// A unit of deque work: the work item embedded in every Task. Fresh until
/// a worker starts the task on a fiber; from then on it is that fiber's
/// Resume item, pushed again whenever the suspended fiber becomes runnable
/// (a suspended fiber sits on at most one deque at a time). Every work item
/// belongs to a job and holds it by plain pointer: the item is an
/// unfinished task of that job, and a job with an unfinished task cannot
/// complete and drop its keep_alive.
struct Job {
  /// Runs the task body on the calling fiber, publishes its result and
  /// drops the producer's reference to the block (Task::run_body).
  void (*run)(Job*) = nullptr;
  /// The block's future state. A task that will never run (shed, abandoned,
  /// left in the inbox at shutdown) drops the producer's reference here.
  FutureStateBase* result = nullptr;
  /// The fiber the task runs on: nullptr while the item is fresh, set once
  /// when a worker starts the task.
  Fiber* fiber = nullptr;
  JobState* job = nullptr;
};

class Worker {
 public:
  Worker(Scheduler& sched, std::uint32_t id, const RuntimeOptions& opts);
  ~Worker();

  void main_loop();

  /// Called by spawn (future-first): switches from `parent` straight into a
  /// fiber for the fresh `child`, whose entry pushes the parent's
  /// continuation (see after_switch).
  void spawn_future_first(Fiber& parent, Job* child);
  /// Called by spawn (parent-first): push the fresh child job.
  void spawn_parent_first(Job* child);
  /// Called by touch on an unresolved future: park the calling fiber.
  void park_on(FutureStateBase& state, Fiber& f);
  /// Called by a producer that found a parked consumer.
  void set_handoff(Fiber* f);
  /// Wakes a parked fiber by pushing its Resume item onto the deque bottom,
  /// without suspending the caller (a continuation-first wake).
  void push_resume(Fiber* f);
  /// Suspends `current` to run `next` immediately (a touch-first wake).
  /// The suspended fiber becomes available again either as a deque Resume
  /// job (park_state == nullptr) or parked on `park_state` — the graph
  /// replay parks instead of pushing when the fiber's next step is itself
  /// an unready touch, mirroring the simulator's enabling semantics (a
  /// never-enabled node is never pushed). Must be called from inside
  /// `current`.
  void switch_to(Fiber& current, Fiber* next, FutureStateBase* park_state);

  WorkerCounters& counters() { return counters_; }
  std::uint32_t id() const { return id_; }
  Scheduler& scheduler() { return sched_; }
  ChaseLevDeque<Job*>& deque() { return deque_; }

 private:
  friend class wsf::runtime::Scheduler;
  friend struct WorkerAudit;  // tests/test_false_sharing.cpp

  Job* find_work();
  /// Pops the bottom of this worker's own deque, counting a local pop.
  Job* pop_local();
  /// One steal operation against `victim` under steal_policy_: steal-one
  /// takes the victim's top; steal-half claims core::steal_claim's share of
  /// the victim's items, runs the oldest, and pushes the rest onto this
  /// worker's deque (their acquisition is counted when they are popped,
  /// like take_injected's admission batching).
  Job* steal_from(std::uint32_t victim);
  /// Runs `job`, then every item a finishing fiber passes back (see
  /// run_fiber), on the scheduler context.
  void execute(Job* job);
  /// Takes on `job` as this worker's next item from the scheduler context:
  /// flushes another job's credits, counts the item, and returns the fiber
  /// to switch into (a fresh task's new fiber, or a Resume item's own).
  Fiber* begin_item(Job* job);
  /// Switches into `f` from the scheduler context and serves whatever comes
  /// back: parks, yields and finishes, and the handoffs they leave. Returns
  /// the item a finishing fiber popped but could not switch into, or nullptr
  /// when the chain ran out.
  Job* run_fiber(Fiber* f);
  /// The body of every task fiber: lands, runs the task, then picks the
  /// fiber to exit into (finish_fiber).
  static void run_task(Job* task);
  /// The post-switch step, run wherever a switch lands (the scheduler
  /// context, a fresh fiber's entry, and the returns from
  /// spawn_future_first, park_on and switch_to) on the worker it landed on:
  /// recycles a fiber that finished into it, turning the finish into a
  /// credit, or pushes the Resume item of the fiber that switched away.
  /// Returns false when neither was pending (a park).
  bool after_switch();
  /// Called by a finishing task fiber, after its body: chooses its
  /// successor exactly as the scheduler context would — its handoff, else
  /// the bottom of its own deque — and exits straight into it when that is
  /// a suspended fiber of the same job. Otherwise the fiber returns to the
  /// scheduler context, passing along any item it popped.
  void finish_fiber();
  /// Per-item accounting of a Resume item this worker acquired; returns its
  /// fiber.
  Fiber* claim_resume(Job* item);
  /// Per-activation accounting, just before this worker switches into `f`.
  void enter(Fiber* f);
  /// Consumes the pending handoff (counting it), nullptr when none is set.
  Fiber* take_handoff();
  /// Counts a spawn of current_job_: spends a credit when this worker holds
  /// one for the job, else increments the job's outstanding count.
  void count_spawn();
  /// Subtracts the held credits from credit_job_'s outstanding count in one
  /// RMW (completing the job when that was the last of it) and clears them.
  /// Called when work leaves this worker: its deque is empty, or the next
  /// work item belongs to another job.
  void flush_credits();
  /// A fiber that runs the fresh `task`, whose item becomes the fiber's
  /// Resume item. The stack comes from this worker's spare slot, else its
  /// free list, else is borrowed from the first peer in ring order whose
  /// list is nonempty; a new stack is created only when all were empty.
  Fiber* acquire_fiber(Job* task) WSF_EXCLUDES(stacks_mutex_);
  /// Keeps the stack of a fiber that finished on this worker: in the spare
  /// slot when it is empty, else on the free list. Owner only.
  void recycle(std::unique_ptr<Fiber> f) WSF_EXCLUDES(stacks_mutex_);
  /// Pushes a finished (or prewarmed, never-started) fiber onto this
  /// worker's free list.
  void put_stack(std::unique_ptr<Fiber> f) WSF_EXCLUDES(stacks_mutex_);
  /// Pops a stack off this worker's free list; nullptr when it is empty.
  /// Called by the owner and by peers whose own list is empty.
  std::unique_ptr<Fiber> take_stack() WSF_EXCLUDES(stacks_mutex_);
  void publish_pending_park();

  // ---- false-sharing layout (audited by tests/test_false_sharing.cpp) ----
  // The deque indices, the counters and the stack list are the only Worker
  // state other threads touch (thieves CAS deque_.top_; snapshot readers
  // scan counters_; peers borrow from the stack list). Each is
  // line-aligned — the first two types already force this, but the
  // explicit alignas pins the intent against type changes — so the cold
  // header fields above deque_ and the owner-only scratch below the stack
  // list never share a line with cross-thread traffic.
  Scheduler& sched_;
  std::uint32_t id_;
  std::size_t stack_bytes_;
  core::StealPolicy steal_policy_;
  core::VictimPolicy victim_policy_;
  alignas(64) ChaseLevDeque<Job*> deque_;
  support::Xoshiro256 rng_;
  alignas(64) WorkerCounters counters_;
  /// This worker's free fiber stacks, unbounded: whichever worker finishes
  /// a fiber pushes its stack here, and peers borrow from it only when
  /// their own list is empty, so no stack is stranded while another worker
  /// creates one.
  alignas(64) support::Mutex stacks_mutex_;
  std::vector<std::unique_ptr<Fiber>> free_stacks_
      WSF_GUARDED_BY(stacks_mutex_);

  // ---- owner-only steal-loop state ----
  /// Last worker a steal succeeded from, this worker's own id while there
  /// is none (core::pick_victim's LastVictim). Starts a new line so the
  /// owner's scratch never shares one with the stack list.
  alignas(64) std::uint32_t last_victim_;
  /// Consecutive find_work rounds that ended in a failed or declined steal;
  /// drives the capped exponential backoff and resets on any acquired work.
  std::uint32_t failed_steal_streak_ = 0;
  /// Current backoff sleep in microseconds (capped exponential).
  std::uint32_t backoff_us_ = 0;
  /// Scratch buffer for ChaseLevDeque::steal_batch claims.
  std::vector<Job*> steal_buf_;
  /// One spare fiber stack, kept without the lock: tried before the free
  /// list by acquire_fiber and filled first by recycle. It cannot strand a
  /// stack:
  ///   * a stack is always in exactly one place: a live fiber, a worker's
  ///     free list, or a spare slot;
  ///   * a slot holds a stack only while its owner is busy, because
  ///     find_work spills it to the owner's list before the worker takes
  ///     from the inbox, steals or parks;
  ///   * so when a worker creates a stack (its slot and every list empty),
  ///     every other stack is live or about to serve its busy owner's next
  ///     spawn — at most one stack per worker.
  /// A spare-slot hit counts as stacks_reused.
  std::unique_ptr<Fiber> spare_stack_;

  // Finish credits (see JobState::outstanding): tasks of credit_job_ that
  // this worker finished and has not yet subtracted from its count. While
  // credits_ > 0 they hold credit_job_ open, so the pointer stays valid;
  // flush_credits clears both.
  JobState* credit_job_ = nullptr;
  std::uint64_t credits_ = 0;

  // Scratch of the switch protocols, consumed where the switch lands.
  Fiber::Context sched_ctx_{};
  Fiber* handoff_ = nullptr;
  /// A fiber that switched away and whose Resume item after_switch pushes.
  Fiber* pending_continuation_ = nullptr;
  /// A fiber that finished and whose stack after_switch recycles.
  Fiber* finished_fiber_ = nullptr;
  /// An item a finishing fiber popped and passes to the scheduler context.
  Job* passed_item_ = nullptr;
  FutureStateBase* pending_park_state_ = nullptr;
  Fiber* pending_park_fiber_ = nullptr;
  /// The job whose work item execute() is currently running. Every edge a
  /// running fiber creates (spawned children, pushed continuations, parked
  /// wakes, handoffs) stays within its own job — futures never cross job
  /// boundaries — so the whole run_fiber chain charges this job. Its tasks'
  /// finishes become this worker's credits, which keep it alive; once the
  /// flush that takes its count to zero has run, it dangles (the job may be
  /// freed) until execute() sets the next item's job.
  JobState* current_job_ = nullptr;
};

/// The worker the calling thread belongs to, nullptr outside the pool.
/// noinline so fiber code re-reads it after suspension points (fibers can
/// migrate across worker threads).
Worker* current_worker() noexcept;
/// The fiber currently executing on this thread (nullptr on a scheduler
/// context).
Fiber* current_fiber() noexcept;

/// One heap block per task: the work item (Job), the future state and the
/// closure F stored inline. It starts with two references (see future.hpp):
/// the producer's travels with the work item and is dropped by run_body
/// right after the publish; the consumer's is adopted by the Future or
/// JobHandle. The closure, and so its captures, is destroyed when the last
/// reference goes.
template <typename R, typename F>
struct Task final : Job, FutureState<R> {
  explicit Task(F f) : fn(std::move(f)) {
    run = &Task::run_body;
    result = this;
  }

  static void run_body(Job* item) {
    auto* self = static_cast<Task*>(item);
    try {
      if constexpr (std::is_void_v<R>) {
        self->fn();
      } else {
        self->emplace(self->fn());
      }
    } catch (...) {
      self->error = std::current_exception();
    }
    Fiber* waiter = self->publish_ready();
    // The consumer may already have taken the value and dropped its
    // reference, so this can free the block, work item included: only
    // `waiter` and the worker are used below.
    self->release();
    if (waiter) {
      Worker* w = current_worker();
      w->set_handoff(waiter);
      w->counters().direct_handoffs++;
    }
  }

  F fn;
};

}  // namespace detail

/// Completion handle of one submitted job. Move-only; wait() may be called
/// once (for non-void R it consumes the value). done()/latency_us() are
/// valid anytime; counters() after completion, when the job was submitted
/// with JobOptions{.counters = true}.
template <typename R>
class JobHandle {
 public:
  JobHandle() = default;
  JobHandle(JobHandle&&) noexcept = default;
  JobHandle& operator=(JobHandle&&) noexcept = default;

  bool valid() const { return job_ != nullptr; }
  bool done() const {
    // acquire pairs with the completing worker's release-store: once done
    // reads true, every result field of the JobState is visible.
    return job_ && job_->done.load(std::memory_order_acquire);
  }
  /// Blocks until the job (root + everything it spawned) completes, then
  /// returns the root's result or rethrows its exception. Throws if the
  /// job never ran — shed past its deadline, or abandoned (its Batch was
  /// destroyed before submission); use wait_outcome() to branch without
  /// exceptions. For non-void R the first call takes the value, and a
  /// second call throws wsf::CheckError.
  R wait();
  /// Blocks until the job resolves and reports how, without consuming the
  /// result or throwing — the overload-tolerant wait: callers that expect
  /// shedding check the outcome, then call wait() only on Completed.
  JobOutcome wait_outcome();
  /// How the job ended; JobOutcome::Pending until done().
  JobOutcome outcome() const {
    WSF_REQUIRE(job_ != nullptr, "outcome() on an empty JobHandle");
    // acquire mirrors done(): observing a final outcome implies the
    // completing worker's other stores are visible too.
    return job_->outcome.load(std::memory_order_acquire);
  }
  /// Admission-to-completion wall time; valid once done(). For Shed jobs
  /// this is the time spent queued before the shed.
  std::uint64_t latency_us() const {
    WSF_REQUIRE(job_ != nullptr, "latency_us() on an empty JobHandle");
    // acquire mirrors done(): a reader that polls latency_us directly
    // still sees the completing worker's stores once a nonzero arrives.
    return job_->latency_us.load(std::memory_order_acquire);
  }
  /// Admission-to-first-run wait (queue time); valid once done(). Equals
  /// latency_us() for jobs that never ran (shed/abandoned).
  std::uint64_t queue_us() const {
    WSF_REQUIRE(job_ != nullptr, "queue_us() on an empty JobHandle");
    // acquire: same publication contract as latency_us above.
    const std::uint64_t q = job_->queue_us.load(std::memory_order_acquire);
    return q == detail::JobState::kQueueUnset ? 0 : q;
  }
  /// First-run-to-completion wall time (service time); valid once done().
  /// Zero for jobs that never ran. latency_us() == queue_us() +
  /// service_us(), so overload shows up in queue time instead of being
  /// smeared into one number.
  std::uint64_t service_us() const {
    const std::uint64_t l = latency_us();
    const std::uint64_t q = queue_us();
    return l > q ? l - q : 0;
  }
  /// The job's counter delta; valid once done(), requires
  /// JobOptions{.counters = true} at submission.
  const CountersReport& counters() const {
    WSF_REQUIRE(job_ && job_->want_counters,
                "counters() needs JobOptions{.counters = true}");
    WSF_REQUIRE(done(), "counters() before the job completed");
    return job_->delta;
  }

 private:
  friend class Scheduler;
  friend class Batch;
  /// Adopts the consumer's reference to the root task's state.
  JobHandle(Scheduler* sched, detail::FutureState<R>* state,
            std::shared_ptr<detail::JobState> job)
      : sched_(sched), state_(state), job_(std::move(job)) {}

  Scheduler* sched_ = nullptr;
  detail::StateRef<R> state_;
  std::shared_ptr<detail::JobState> job_;
};

class Scheduler {
 public:
  explicit Scheduler(const RuntimeOptions& opts = {});
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admits `root` as a new job and returns immediately. The job completes
  /// when the root and every task it spawned have finished (futures never
  /// touched included — the runtime analogue of the paper's super final
  /// node, §6.2). Safe to call from several threads concurrently; must not
  /// be called from a worker (use spawn() inside tasks).
  template <typename F>
  auto submit(F&& root, const JobOptions& opts = {})
      -> JobHandle<std::invoke_result_t<F>> {
    auto task = make_task(std::forward<F>(root));
    std::shared_ptr<detail::JobState> js = make_job_state(opts);
    task->job = js.get();
    JobHandle<std::invoke_result_t<F>> handle(this, task.get(), std::move(js));
    inject(task.release());
    return handle;
  }

  /// Runs `root` to completion inside the pool and returns its result —
  /// submit() + wait(). May be called repeatedly and, because completion is
  /// tracked per job, concurrently from several submitter threads.
  template <typename F>
  auto run(F&& root) -> std::invoke_result_t<F> {
    return submit(std::forward<F>(root)).wait();
  }

  /// submit() with an explicit admission policy. Returns a typed result:
  /// the handle is valid only when status == Admitted. Under an unbounded
  /// inbox (inbox_capacity == 0) admission always succeeds immediately.
  template <typename F>
  auto try_submit(F&& root, const JobOptions& opts = {},
                  const AdmitOptions& admit_opts = {})
      -> SubmitResult<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = make_task(std::forward<F>(root));
    std::shared_ptr<detail::JobState> js = make_job_state(opts);
    task->job = js.get();
    detail::Job* raw = task.get();
    const SubmitStatus st = admit(&raw, 1, admit_opts);
    if (st != SubmitStatus::Admitted) {
      // Never admitted and no handle made: `task` frees the whole block,
      // and nothing will resolve the job.
      js->keep_alive.reset();
      return {st, JobHandle<R>{}};
    }
    // The inbox holds the producer's reference now; the handle adopts the
    // consumer's (the block outlives the task even if it already ran).
    return {st, JobHandle<R>(this, task.release(), std::move(js))};
  }

  /// Admits every job staged in `batch` with one queue operation and one
  /// worker wake — the cheap way to push thousands of small jobs.
  void submit(Batch&& batch) WSF_EXCLUDES(inbox_mutex_, idle_mutex_);

  /// submit(Batch&&) with an explicit admission policy; all-or-nothing.
  /// On Rejected/TimedOut the batch is left intact — the caller can retry
  /// later or drop it (dropping abandons the jobs, resolving their handles
  /// with JobOutcome::Abandoned). A Block/Timeout batch larger than the
  /// inbox capacity can never fit and is refused up front.
  SubmitStatus try_submit(Batch& batch, const AdmitOptions& admit_opts = {})
      WSF_EXCLUDES(inbox_mutex_, idle_mutex_);

  /// Blocks until no job is in flight. (New submissions admitted while
  /// draining extend the wait.)
  void drain() WSF_EXCLUDES(quiescent_mutex_);

  /// Pre-provisions `count` fiber stacks, dealt round-robin onto the
  /// workers' free lists — capacity planning for a known admission burst,
  /// so a load run reaches zero steady-state stack allocation
  /// deterministically instead of relying on warmup having touched the
  /// peak. Acquiring a prewarmed stack counts as stacks_reused; prewarming
  /// itself counts nothing.
  void prewarm(std::size_t count);

  core::ForkPolicy policy() const { return opts_.policy; }
  std::uint32_t num_workers() const {
    return static_cast<std::uint32_t>(workers_.size());
  }
  /// Admission-inbox capacity in jobs; 0 = unbounded.
  std::size_t inbox_capacity() const { return opts_.inbox_capacity; }

  /// Snapshot of the submit-side admission statistics (racy while
  /// submitters run; exact at quiescence — see AdmissionStats for the
  /// identities that close against the worker counters).
  AdmissionStats admission() const {
    AdmissionStats s;
    // relaxed: statistics snapshot — cells may be mutually skewed while
    // submitters race; each read is atomic and exactness holds at
    // quiescence, same contract as RelaxedCounter.
    s.submitted = adm_submitted_.load(std::memory_order_relaxed);
    s.admitted = adm_admitted_.load(std::memory_order_relaxed);    // ditto
    s.rejected = adm_rejected_.load(std::memory_order_relaxed);    // ditto
    s.timed_out = adm_timed_out_.load(std::memory_order_relaxed);  // ditto
    s.blocked_us = adm_blocked_us_.load(std::memory_order_relaxed);  // ditto
    return s;
  }

  /// Snapshot of all worker counters since the last reset (racy while tasks
  /// run; exact when quiescent).
  CountersReport counters() const;
  /// Rebaselines the counters so subsequent counters() calls report only
  /// events from here on. Implemented as a baseline snapshot, not a write
  /// to the live cells: workers stay the sole writers of their counters.
  /// Scheduler-wide — for per-job deltas use JobOptions{.counters = true}.
  void reset_counters();

  /// Allocates a task's one heap block: a fresh work item, its future state
  /// and the closure. The unique_ptr owns both references until the caller
  /// hands them out (the producer's with the work item, the consumer's to a
  /// Future or JobHandle). Exposed for spawn(); not part of the stable user
  /// API.
  template <typename F>
  static auto make_task(F&& fn) {
    using Block = detail::Task<std::invoke_result_t<F>, std::decay_t<F>>;
    return std::make_unique<Block>(std::forward<F>(fn));
  }

 private:
  friend class detail::Worker;
  friend class Batch;
  template <typename R>
  friend class JobHandle;

  /// Allocates the completion state for a new job, with its keep_alive set
  /// (stamps the admission time and absolute deadline; snapshots counter
  /// baselines when opts.counters).
  std::shared_ptr<detail::JobState> make_job_state(const JobOptions& opts);
  /// Admits one job under SubmitPolicy::Block; the inbox takes over the
  /// producer's reference.
  void inject(detail::Job* job) WSF_EXCLUDES(inbox_mutex_, idle_mutex_);
  /// The one admission gate: applies the capacity bound under
  /// `admit_opts.policy`, then moves all `n` jobs into the priority
  /// buckets and wakes workers. All-or-nothing; on success the producer's
  /// references pass to the inbox, on failure the caller keeps them.
  /// Updates the admission statistics either way.
  SubmitStatus admit(detail::Job** jobs, std::size_t n,
                     const AdmitOptions& admit_opts)
      WSF_EXCLUDES(inbox_mutex_, idle_mutex_);
  /// Pops the oldest injected job of the highest nonempty priority class;
  /// pulls a few more into the calling worker's deque (admission batching)
  /// so a burst of tiny jobs does not serialize on the inbox lock.
  /// Deadline-expired jobs encountered on the way are shed: never run,
  /// charged to `taker.counters().shed`, their handles resolved with
  /// JobOutcome::Shed.
  detail::Job* take_injected(detail::Worker& taker)
      WSF_EXCLUDES(inbox_mutex_);
  /// Marks a staged-but-never-admitted job completed-without-running so
  /// its handle's wait() throws instead of hanging, and drops the
  /// producer's reference.
  void abandon(detail::Job* job) WSF_EXCLUDES(quiescent_mutex_);
  /// Resolves a job that will never run (Shed or Abandoned): stamps its
  /// latency/queue time, publishes the outcome + done flag, retires it from
  /// jobs_in_flight_ when it had been admitted, and releases its
  /// keep_alive.
  void finish_without_run(detail::JobState& js, JobOutcome outcome,
                          bool was_admitted)
      WSF_EXCLUDES(quiescent_mutex_);

  void task_started(detail::JobState& js) {
    // relaxed: only the count matters while the job runs; the completing
    // decrement (acq_rel in tasks_finished) provides the ordering.
    js.outstanding.fetch_add(1, std::memory_order_relaxed);
  }
  /// Subtracts `n` finished tasks (one worker's flushed credits) from the
  /// job's count and completes the job when that leaves none.
  void tasks_finished(detail::JobState& js, std::uint64_t n)
      WSF_EXCLUDES(quiescent_mutex_);
  void complete_job(detail::JobState& js) WSF_EXCLUDES(quiescent_mutex_);
  void wait_job(detail::JobState& js) WSF_EXCLUDES(quiescent_mutex_);

  RuntimeOptions opts_;
  /// Immutable after the constructor returns (and the constructor starts
  /// the worker threads only after the vector is fully built), so workers
  /// may index into it lock-free.
  std::vector<std::unique_ptr<detail::Worker>> workers_;
  /// Per-worker counter values captured at the last reset_counters().
  std::vector<WorkerCounters> baseline_;
  std::vector<std::thread> threads_;
  /// Shutdown flag: release-store under idle_mutex_ in the destructor
  /// (part of the cv protocol), acquire-load in worker idle loops.
  std::atomic<bool> stop_{false};
  /// Jobs admitted and not yet completed (drain()'s condition). Incremented
  /// relaxed at admission — going *away* from quiescence never needs to
  /// wake anyone; decremented acq_rel under quiescent_mutex_ so drain()'s
  /// cv wait cannot miss the step to zero.
  std::atomic<std::uint64_t> jobs_in_flight_{0};

  support::Mutex inbox_mutex_;
  /// Priority-bucketed FIFO: one deque per JobPriority class, taken
  /// highest class first, admission order within a class. With
  /// inbox_capacity == 0 (default) and Normal-only traffic this degrades
  /// to exactly the old single FIFO.
  std::array<std::deque<detail::Job*>, kNumJobPriorities> inbox_
      WSF_GUARDED_BY(inbox_mutex_);
  /// Total jobs across all buckets — the capacity bound's subject.
  std::size_t inbox_size_ WSF_GUARDED_BY(inbox_mutex_) = 0;
  /// Queued jobs carrying a deadline; lets take_injected skip the clock
  /// read entirely on deadline-free streams (the common case).
  std::size_t inbox_deadlines_ WSF_GUARDED_BY(inbox_mutex_) = 0;
  /// Submitters currently blocked waiting for space; takers only notify
  /// the space cv when this is nonzero, keeping the unbounded/uncontended
  /// take path free of cv traffic.
  std::size_t space_waiters_ WSF_GUARDED_BY(inbox_mutex_) = 0;
  /// Blocked/timed-out submitters park here; take_injected notifies as it
  /// frees space under a bounded capacity.
  support::CondVar inbox_space_cv_;

  // Submit-side admission statistics (see AdmissionStats). True RMW
  // atomics — many submitter threads bump them concurrently — unlike the
  // single-writer RelaxedCounter cells in WorkerCounters.
  std::atomic<std::uint64_t> adm_submitted_{0};
  std::atomic<std::uint64_t> adm_admitted_{0};
  std::atomic<std::uint64_t> adm_rejected_{0};
  std::atomic<std::uint64_t> adm_timed_out_{0};
  std::atomic<std::uint64_t> adm_blocked_us_{0};

  /// Idle workers park here; admission bumps the epoch and notifies. The
  /// epoch closes the race between a worker's last find_work() miss and
  /// its wait: an admission between the two changes the epoch the worker
  /// read before re-checking, so the wait predicate is already true.
  /// The epoch itself stays atomic (not WSF_GUARDED_BY): waiters read it
  /// lock-free before deciding to park; only the *bump* must happen under
  /// idle_mutex_ for the cv protocol. Bumps use release, reads acquire,
  /// so a woken worker also sees the admitted job.
  support::Mutex idle_mutex_;
  support::CondVar idle_cv_;
  std::atomic<std::uint64_t> work_epoch_{0};

  /// Serves JobHandle::wait() and drain(). Completion events are rare
  /// (once per job), so one scheduler-wide cv is enough. Guards no members
  /// directly: the waited-on state (JobState::done, jobs_in_flight_) is
  /// atomic, and the mutex exists so completion's store→notify cannot
  /// interleave into a waiter between its predicate check and its sleep.
  support::Mutex quiescent_mutex_;
  support::CondVar quiescent_cv_;
};

/// Stages jobs for a single admission: handles are live immediately, the
/// jobs start running when the batch is passed to Scheduler::submit. A
/// batch destroyed without being submitted abandons its jobs — their
/// handles' wait() throws.
class Batch {
 public:
  explicit Batch(Scheduler& sched) : sched_(&sched) {}
  ~Batch() {
    for (detail::Job* job : staged_) sched_->abandon(job);
  }
  Batch(Batch&&) noexcept = default;
  Batch& operator=(Batch&&) = delete;
  Batch(const Batch&) = delete;
  Batch& operator=(const Batch&) = delete;

  template <typename F>
  auto add(F&& root, const JobOptions& opts = {})
      -> JobHandle<std::invoke_result_t<F>> {
    auto task = Scheduler::make_task(std::forward<F>(root));
    std::shared_ptr<detail::JobState> js = sched_->make_job_state(opts);
    task->job = js.get();
    staged_.push_back(task.get());  // the producer's reference
    return JobHandle<std::invoke_result_t<F>>(sched_, task.release(),
                                              std::move(js));
  }

  std::size_t size() const { return staged_.size(); }
  Scheduler& scheduler() { return *sched_; }

 private:
  friend class Scheduler;
  Scheduler* sched_;
  /// Staged root work items, each holding its task's producer reference.
  std::vector<detail::Job*> staged_;
};

template <typename R>
R JobHandle<R>::wait() {
  if constexpr (!std::is_void_v<R>)
    WSF_REQUIRE(state_ == nullptr || !state_->taken,
                "second wait() on a JobHandle: its value was already taken");
  const JobOutcome o = wait_outcome();
  WSF_CHECK(o != JobOutcome::Shed, "job was shed: its deadline expired "
            "before it started (use wait_outcome() to handle shedding)");
  WSF_CHECK(state_->ready(),
            "job did not complete (batch abandoned before submit?)");
  if (state_->error) std::rethrow_exception(state_->error);
  if constexpr (!std::is_void_v<R>) {
    state_->taken = true;
    return state_->take();
  }
}

template <typename R>
JobOutcome JobHandle<R>::wait_outcome() {
  WSF_REQUIRE(job_ != nullptr, "wait_outcome() on an empty JobHandle");
  sched_->wait_job(*job_);
  // acquire pairs with the completing worker's outcome store before its
  // done release (wait_job already synchronized, but keep the read
  // self-sufficient).
  return job_->outcome.load(std::memory_order_acquire);
}

/// A process-wide, reference-counted lease on a long-lived Scheduler.
/// acquire() returns the live scheduler for (resolved worker count, policy,
/// stack size, steal policy, victim policy) or starts one; the scheduler
/// dies when the last lease drops.
/// This is how independent components (e.g. the sweep backend's worker
/// threads) share one warm pool instead of churning a scheduler each.
/// RuntimeOptions::seed is deliberately not part of the key: it only
/// perturbs victim selection, and the runtime is not deterministic per seed
/// anyway (unlike the simulator).
class SharedScheduler {
 public:
  static std::shared_ptr<SharedScheduler> acquire(const RuntimeOptions& opts);

  Scheduler& scheduler() { return sched_; }
  /// Hold while per-job counter deltas must be free of other tenants'
  /// events (JobOptions::counters is exact only in isolation). An
  /// annotated capability, so lessee code can carry WSF_REQUIRES /
  /// WSF_GUARDED_BY contracts on it (exp::RuntimeBackend does).
  support::Mutex& exclusive() WSF_RETURN_CAPABILITY(exclusive_) {
    return exclusive_;
  }

 private:
  explicit SharedScheduler(const RuntimeOptions& opts) : sched_(opts) {}
  Scheduler sched_;
  support::Mutex exclusive_;
};

/// Spawns `fn` as a future task under the scheduler's policy. Must be
/// called from inside a task (i.e. on a worker fiber).
template <typename F>
auto spawn(F&& fn) -> Future<std::invoke_result_t<F>> {
  detail::Worker* w = detail::current_worker();
  WSF_REQUIRE(w != nullptr, "spawn() outside the scheduler");
  Fiber* parent = nullptr;
  if (w->scheduler().policy() == core::ForkPolicy::FutureFirst) {
    parent = detail::current_fiber();
    WSF_CHECK(parent != nullptr, "spawn outside a task fiber");
  }
  auto* task = Scheduler::make_task(std::forward<F>(fn)).release();
  // The future adopts the consumer's reference before the task can run;
  // the producer's travels with the work item.
  Future<std::invoke_result_t<F>> future(task);
  w->counters().spawns++;
  if (parent != nullptr) {
    w->spawn_future_first(*parent, task);
  } else {
    w->spawn_parent_first(task);
  }
  return future;
}

}  // namespace wsf::runtime
