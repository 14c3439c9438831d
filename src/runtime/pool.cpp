#include "runtime/pool.hpp"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <tuple>
#include <utility>

#include "support/thread_safety.hpp"

namespace wsf::runtime {
namespace detail {

namespace {
thread_local Worker* tl_worker = nullptr;
thread_local Fiber* tl_fiber = nullptr;
}  // namespace

// noinline: fiber code must re-read these after suspension points, because a
// fiber can resume on a different worker thread (a fiber switch does not
// switch TLS).
__attribute__((noinline)) Worker* current_worker() noexcept {
  return tl_worker;
}
__attribute__((noinline)) Fiber* current_fiber() noexcept {
  return tl_fiber;
}

void wait_until_ready(FutureStateBase& state) {
  Worker* w = current_worker();
  WSF_REQUIRE(w != nullptr, "touch() outside the scheduler");
  w->counters().touches++;
  if (state.ready()) return;
  Fiber* f = current_fiber();
  WSF_CHECK(f != nullptr, "touch outside a task fiber");
  w->counters().parked_touches++;
  w->park_on(state, *f);
  // Resumed: the producer published the value before waking us.
  WSF_CHECK(state.ready(), "parked touch resumed before the value arrived");
}

Worker::Worker(Scheduler& sched, std::uint32_t id,
               const RuntimeOptions& opts)
    : sched_(sched),
      id_(id),
      stack_bytes_(opts.stack_bytes),
      steal_policy_(opts.steal),
      victim_policy_(opts.victim),
      rng_(support::derive_seed(opts.seed, id)),
      last_victim_(id) {}

Worker::~Worker() = default;

void Worker::main_loop() {
  tl_worker = this;
  int idle_spins = 0;
  while (true) {
    Job* job = find_work();
    if (job) {
      idle_spins = 0;
      execute(job);
      continue;
    }
    // acquire pairs with the destructor's release-store: after stop reads
    // true the drained state (no jobs in flight) is visible too.
    if (sched_.stop_.load(std::memory_order_acquire)) break;
    if (++idle_spins < 64) {
      std::this_thread::yield();
      continue;
    }
    // Park. Read the admission epoch, re-check for work (an admission
    // between the miss above and the wait would otherwise be slept
    // through; bumping the epoch under idle_mutex_ closes the remaining
    // window), then wait until the epoch moves, stop is requested, or a
    // timeout re-arms the steal loop — work pushed onto a peer's deque
    // does not bump the epoch, so sleepers must still poll for steals.
    // acquire pairs with the admission-side release bump: a worker that
    // observes a moved epoch also observes the job that caused it.
    const std::uint64_t epoch =
        sched_.work_epoch_.load(std::memory_order_acquire);
    if ((job = find_work()) != nullptr) {
      idle_spins = 0;
      execute(job);
      continue;
    }
    {
      support::UniqueLock lock(sched_.idle_mutex_);
      sched_.idle_cv_.wait_for(
          lock, std::chrono::microseconds(100), [&] {
            // Both acquire: see the comment on the pre-lock epoch read;
            // stop additionally orders the destructor's drained state.
            return sched_.work_epoch_.load(std::memory_order_acquire) !=
                       epoch ||
                   sched_.stop_.load(std::memory_order_acquire);
          });
    }
    idle_spins = 0;
  }
  tl_worker = nullptr;
}

Job* Worker::pop_local() {
  Job* j = deque_.pop_bottom();
  if (j) {
    counters_.local_pops++;
    failed_steal_streak_ = 0;
  }
  return j;
}

Job* Worker::find_work() {
  if (Job* j = pop_local()) return j;
  // Nothing local left: the finished tasks' credits go back to their job
  // before this worker takes new work, steals or parks, so no job waits on
  // an idle worker; and the spare stack goes onto the free list, where
  // peers can borrow it (see spare_stack_).
  flush_credits();
  if (spare_stack_) put_stack(std::move(spare_stack_));
  if (Job* j = sched_.take_injected(*this)) {
    counters_.inbox_takes++;
    failed_steal_streak_ = 0;
    return j;
  }
  // One steal operation per round, like the model's parsimonious thief
  // (StealPolicy::Half claims a batch, but still one operation per round).
  // A single worker has no victims: skip selection entirely so 1-worker
  // replays burn no steal_attempts and no RNG draws.
  const std::uint32_t n = sched_.num_workers();
  if (n <= 1) return nullptr;
  // Without nonempty_only the uniform draw may pick an empty deque, as in
  // ABP. A declined round (Nearest seeing every deque empty) makes no
  // attempt but counts toward the backoff below.
  const std::uint32_t victim = core::pick_victim(
      victim_policy_, id_, n, last_victim_, /*nonempty_only=*/false, rng_,
      [this](std::uint32_t v) {
        return sched_.workers_[v]->deque_.empty_estimate();
      });
  if (victim != id_) {
    counters_.steal_attempts++;
    if (Job* j = steal_from(victim)) {
      counters_.steals++;
      last_victim_ = victim;
      failed_steal_streak_ = 0;
      backoff_us_ = 0;
      return j;
    }
  }
  // Capped exponential backoff once a few consecutive rounds fail: an idle
  // thief hammering top_ CASes generates coherence traffic on every victim
  // line it probes; sleeping before the next probe costs only latency it
  // was already wasting. main_loop's epoch park still bounds the worst
  // case, and any acquired work resets the streak.
  constexpr std::uint32_t kBackoffAfter = 4;
  constexpr std::uint32_t kBackoffStartUs = 2;
  constexpr std::uint32_t kBackoffCapUs = 64;
  if (++failed_steal_streak_ >= kBackoffAfter) {
    if (backoff_us_ == 0) {
      backoff_us_ = kBackoffStartUs;
    } else if (backoff_us_ < kBackoffCapUs) {
      backoff_us_ *= 2;
    }
    counters_.steal_backoffs++;
    std::this_thread::sleep_for(std::chrono::microseconds(backoff_us_));
  }
  return nullptr;
}

Job* Worker::steal_from(std::uint32_t victim) {
  ChaseLevDeque<Job*>& vd = sched_.workers_[victim]->deque_;
  if (steal_policy_ == core::StealPolicy::One) return vd.steal_top();
  // Steal-half: claim what core::steal_claim allows for the victim's
  // estimated size, run the oldest, and keep the rest.
  steal_buf_.clear();
  const std::size_t got = vd.steal_batch(
      steal_buf_, core::steal_claim(steal_policy_, vd.size_estimate()));
  if (got == 0) return nullptr;
  // steal_buf_ is oldest-first; index 0 is what steal-one would have
  // taken. The extras become ordinary deque work on *this* worker —
  // uncounted here, acquired later as local_pops (the take_injected
  // precedent), so the acquisition identities close unchanged. Push newest
  // first: LIFO pops then run them oldest-first after the returned job.
  for (std::size_t i = got; i > 1; --i) deque_.push_bottom(steal_buf_[i - 1]);
  if (got > 1) {
    counters_.batch_steals++;
    counters_.batch_stolen_items += got - 1;
  }
  return steal_buf_[0];
}

Fiber* Worker::acquire_fiber(Job* task) {
  // One pointer: the entry closure fits MoveOnlyFunction's inline storage.
  FiberFn body = [task] { run_task(task); };
  std::unique_ptr<Fiber> f = std::move(spare_stack_);
  if (!f) f = take_stack();
  // Borrow one stack, never more: stacks then only ever sit in some
  // worker's list or in a live fiber, so a scan that finds every list empty
  // means every stack is in use.
  const std::uint32_t n = sched_.num_workers();
  for (std::uint32_t d = 1; !f && d < n; ++d)
    f = sched_.workers_[(id_ + d) % n]->take_stack();
  if (f) {
    f->rebind(std::move(body));
    counters_.stacks_reused++;
  } else {
    counters_.fibers_created++;
    f = std::make_unique<Fiber>(std::move(body), stack_bytes_);
  }
  // From here on the task's work item stands for its suspended fiber.
  task->fiber = f.get();
  f->user_item = task;
  return f.release();
}

void Worker::recycle(std::unique_ptr<Fiber> f) {
  // Ownership follows the finisher: whichever worker ran the fiber to
  // completion keeps its stack. A fiber that migrated thus moves its stack
  // to the thief; the victim, once its own slot and list run dry, borrows
  // one back in acquire_fiber.
  if (!spare_stack_) {
    spare_stack_ = std::move(f);
    return;
  }
  put_stack(std::move(f));
}

void Worker::put_stack(std::unique_ptr<Fiber> f) {
  support::LockGuard lock(stacks_mutex_);
  free_stacks_.push_back(std::move(f));
}

std::unique_ptr<Fiber> Worker::take_stack() {
  support::LockGuard lock(stacks_mutex_);
  if (free_stacks_.empty()) return nullptr;
  std::unique_ptr<Fiber> f = std::move(free_stacks_.back());
  free_stacks_.pop_back();
  return f;
}

void Worker::execute(Job* job) {
  // A finishing fiber passes back an item it popped but could not switch
  // into; it runs next, as find_work would have popped it.
  do {
    job = run_fiber(begin_item(job));
  } while (job != nullptr);
}

Fiber* Worker::begin_item(Job* job) {
  // Credits are per job: switching to another job's item flushes them, or
  // a finished job whose last tasks ran here would wait on this item.
  if (credits_ > 0 && job->job != credit_job_) flush_credits();
  // Everything the work item does — spawns, parks, wakes, handoffs — is
  // charged to its job: those edges never cross job boundaries (futures
  // are touched within the job that spawned them).
  current_job_ = job->job;
  Fiber* f = nullptr;
  if (job->fiber == nullptr) {
    // First fresh task of the job == the root starting: stamp queue time
    // (admission → first run). Children are created only after the root
    // ran, and they reach other workers through deque push/steal edges
    // that order this store before their load — so the stamp has a single
    // writer and every later reader sees it set.
    // relaxed: single-writer store (see above); the done flag's
    // release/acquire pair publishes the final value to JobHandle readers.
    if (current_job_->queue_us.load(std::memory_order_relaxed) ==
        JobState::kQueueUnset) {
      current_job_->queue_us.store(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - current_job_->submitted)
                  .count()),
          std::memory_order_relaxed);  // see above
    }
    counters_.tasks_run++;
    f = acquire_fiber(job);
  } else {
    f = claim_resume(job);
  }
  // The item belongs to its task's block: it is not freed here, and once
  // the fiber finishes it may already be gone.
  return f;
}

Fiber* Worker::claim_resume(Job* item) {
  Fiber* f = item->fiber;
  counters_.resumes++;
  if (f->user_data != this) counters_.migrations++;
  return f;
}

void Worker::enter(Fiber* f) {
  f->user_data = this;
  tl_fiber = f;
  counters_.fiber_resumes++;
}

Fiber* Worker::take_handoff() {
  Fiber* next = std::exchange(handoff_, nullptr);
  if (next) counters_.handoff_runs++;
  return next;
}

Job* Worker::run_fiber(Fiber* f) {
  while (f) {
    enter(f);
    f->resume(&sched_ctx_);
    // Back on the scheduler context: `f`, or a fiber the chain switched
    // into directly, finished or suspended. `this` is still valid — the
    // scheduler context never migrates. A finish or a future-first spawn
    // reaches it only when no direct switch was possible; a park or a
    // touch-first yield always does, and a yield or a lost park race leaves
    // the fiber to run next as the handoff.
    tl_fiber = nullptr;
    if (!after_switch()) publish_pending_park();
    if (Job* item = std::exchange(passed_item_, nullptr)) return item;
    f = take_handoff();
  }
  return nullptr;
}

void Worker::run_task(Job* task) {
  // A fresh fiber's entry is a landing site: after a future-first spawn it
  // pushes the parent's continuation.
  current_worker()->after_switch();
  task->run(task);  // may free the task block: only the worker is used below
  current_worker()->finish_fiber();
}

bool Worker::after_switch() {
  if (Fiber* done = std::exchange(finished_fiber_, nullptr)) {
    recycle(std::unique_ptr<Fiber>(done));
    // The finish touches no shared word: it becomes a credit that this
    // worker's next spawn of the job spends, or that flush_credits
    // subtracts when work leaves the worker (see JobState::outstanding).
    // The stack is back in this worker's spare slot or list before the job
    // can be seen done.
    WSF_DCHECK(credits_ == 0 || credit_job_ == current_job_,
               "execute() left another job's credits unflushed");
    credit_job_ = current_job_;
    ++credits_;
    return true;
  }
  if (Fiber* cont = std::exchange(pending_continuation_, nullptr)) {
    // Now that the fiber is truly suspended, make its continuation
    // stealable — its task's own work item, reused as its Resume item.
    deque_.push_bottom(static_cast<Job*>(cont->user_item));
    counters_.continuations_pushed++;
    return true;
  }
  return false;
}

void Worker::finish_fiber() {
  Fiber* self = tl_fiber;
  finished_fiber_ = self;
  // The scheduler context's order of precedence: the handoff, then the
  // bottom of this worker's own deque.
  Fiber* next = take_handoff();
  if (next == nullptr) {
    if (Job* item = pop_local()) {
      // A fresh task, or another job's item, needs the scheduler context
      // (stack acquisition, the job switch); it takes the item as popped.
      if (item->fiber != nullptr && item->job == current_job_) {
        next = claim_resume(item);
      } else {
        passed_item_ = item;
      }
    }
  }
  if (next == nullptr) return;  // the trampoline returns to the scheduler
  counters_.direct_switches++;
  enter(next);
  self->exit_into(*next);
}

void Worker::publish_pending_park() {
  FutureStateBase* st = std::exchange(pending_park_state_, nullptr);
  Fiber* f = std::exchange(pending_park_fiber_, nullptr);
  WSF_CHECK(st != nullptr && f != nullptr, "suspend without a protocol");
  if (!st->try_park(f)) {
    // The producer beat us to it; resume the consumer immediately — unless
    // this was a yield-park already carrying a handed-off waiter, in which
    // case the consumer is woken through the deque instead.
    if (handoff_ == nullptr) {
      handoff_ = f;
    } else {
      push_resume(f);
    }
  }
}

void Worker::count_spawn() {
  if (credits_ > 0 && credit_job_ == current_job_) {
    --credits_;  // a task this worker finished pays for the new one
    return;
  }
  counters_.outstanding_rmws++;
  sched_.task_started(*current_job_);
}

void Worker::flush_credits() {
  if (credits_ == 0) return;
  counters_.outstanding_rmws++;
  // Both cleared first: the flush may complete and free the job.
  sched_.tasks_finished(*std::exchange(credit_job_, nullptr),
                        std::exchange(credits_, 0));
}

void Worker::spawn_future_first(Fiber& parent, Job* child) {
  child->job = current_job_;
  count_spawn();
  counters_.tasks_run++;
  counters_.inline_children++;
  Fiber* f = acquire_fiber(child);
  // The child's entry pushes the parent's Resume item, once this switch
  // has saved the parent's registers.
  pending_continuation_ = &parent;
  counters_.direct_switches++;
  enter(f);
  parent.switch_into(*f);
  // Landed, possibly on another worker after a steal: `this` may be stale,
  // and so must the caller re-read current_worker().
  current_worker()->after_switch();
}

void Worker::spawn_parent_first(Job* child) {
  child->job = current_job_;
  count_spawn();
  deque_.push_bottom(child);
}

void Worker::park_on(FutureStateBase& state, Fiber& f) {
  pending_park_state_ = &state;
  pending_park_fiber_ = &f;
  f.suspend();
  // Woken, possibly on another worker or straight from its producer.
  current_worker()->after_switch();
}

void Worker::set_handoff(Fiber* f) {
  WSF_CHECK(handoff_ == nullptr, "double handoff");
  handoff_ = f;
}

void Worker::push_resume(Fiber* f) {
  deque_.push_bottom(static_cast<Job*>(f->user_item));
  counters_.wakes_pushed++;
}

void Worker::switch_to(Fiber& current, Fiber* next,
                       FutureStateBase* park_state) {
  if (park_state) {
    pending_park_state_ = park_state;
    pending_park_fiber_ = &current;
  } else {
    pending_continuation_ = &current;
  }
  set_handoff(next);
  current.suspend();
  // Resumed, possibly on another worker or straight from a finishing fiber:
  // the caller must re-read current_worker().
  current_worker()->after_switch();
}

}  // namespace detail

Scheduler::Scheduler(const RuntimeOptions& opts) : opts_(opts) {
  std::uint32_t n = opts_.workers;
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
  for (std::uint32_t i = 0; i < n; ++i)
    workers_.push_back(std::make_unique<detail::Worker>(*this, i, opts_));
  baseline_.resize(n);
  threads_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i)
    threads_.emplace_back([this, i] { workers_[i]->main_loop(); });
}

Scheduler::~Scheduler() {
  drain();
  {
    support::LockGuard lock(idle_mutex_);
    // Both release, and under idle_mutex_ so parked workers cannot miss
    // the wake: a worker re-checks its predicate while holding the lock.
    stop_.store(true, std::memory_order_release);
    work_epoch_.fetch_add(1, std::memory_order_release);  // see above
  }
  idle_cv_.notify_all();
  for (auto& t : threads_) t.join();
  // drain() emptied the inbox; defensive cleanup if a job was admitted
  // concurrently with destruction (a contract violation). Locked even
  // though the workers are gone — inbox_ is guarded by inbox_mutex_, and
  // the uncontended acquire is cheaper than carving out an exemption.
  support::LockGuard lock(inbox_mutex_);
  for (auto& bucket : inbox_)
    for (detail::Job* j : bucket) {
      detail::JobState* js = j->job;
      j->result->release();  // the producer's reference: it will never run
      js->keep_alive.reset();  // the job will never resolve
    }
}

std::shared_ptr<detail::JobState> Scheduler::make_job_state(
    const JobOptions& opts) {
  auto js = std::make_shared<detail::JobState>();
  js->keep_alive = js;
  js->submitted = std::chrono::steady_clock::now();
  js->priority = opts.priority;
  if (opts.deadline.count() > 0) js->deadline = js->submitted + opts.deadline;
  if (opts.counters) {
    js->want_counters = true;
    js->baseline.reserve(workers_.size());
    for (const auto& w : workers_) js->baseline.push_back(w->counters());
  }
  return js;
}

void Scheduler::inject(detail::Job* job) {
  const SubmitStatus st = admit(&job, 1, AdmitOptions{});
  WSF_CHECK(st == SubmitStatus::Admitted, "Block admission cannot fail");
}

void Scheduler::submit(Batch&& batch) {
  const SubmitStatus st = try_submit(batch, AdmitOptions{});
  WSF_CHECK(st == SubmitStatus::Admitted, "Block admission cannot fail");
}

SubmitStatus Scheduler::try_submit(Batch& batch,
                                   const AdmitOptions& admit_opts) {
  WSF_REQUIRE(batch.sched_ == this,
              "batch was staged for a different scheduler");
  if (batch.staged_.empty()) return SubmitStatus::Admitted;
  const SubmitStatus st =
      admit(batch.staged_.data(), batch.staged_.size(), admit_opts);
  if (st != SubmitStatus::Admitted) return st;  // batch left intact
  batch.staged_.clear();  // the inbox holds the producer references now
  return st;
}

SubmitStatus Scheduler::admit(detail::Job** jobs, std::size_t n,
                              const AdmitOptions& admit_opts) {
  using clock = std::chrono::steady_clock;
  // relaxed (here and for every adm_* cell): pure statistics — no payload
  // is published through them and AdmissionStats is exact at quiescence.
  adm_submitted_.fetch_add(n, std::memory_order_relaxed);
  const std::size_t cap = opts_.inbox_capacity;
  // An oversized batch can never fit under Block/Timeout — refuse up
  // front instead of deadlocking the submitter.
  WSF_REQUIRE(cap == 0 || admit_opts.policy == SubmitPolicy::Reject ||
                  n <= cap,
              "batch exceeds the inbox capacity and would block forever");
  {
    support::UniqueLock lock(inbox_mutex_);
    if (cap != 0 && inbox_size_ + n > cap) {
      if (admit_opts.policy == SubmitPolicy::Reject) {
        adm_rejected_.fetch_add(n, std::memory_order_relaxed);  // see above
        return SubmitStatus::Rejected;
      }
      const clock::time_point t0 = clock::now();
      bool fits = true;
      ++space_waiters_;
      if (admit_opts.policy == SubmitPolicy::Block) {
        inbox_space_cv_.wait(lock, [&] { return inbox_size_ + n <= cap; });
      } else {
        fits = inbox_space_cv_.wait_for(
            lock, admit_opts.timeout,
            [&] { return inbox_size_ + n <= cap; });
      }
      --space_waiters_;
      adm_blocked_us_.fetch_add(  // see above
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  clock::now() - t0)
                  .count()),
          std::memory_order_relaxed);  // see above
      if (!fits) {
        adm_timed_out_.fetch_add(n, std::memory_order_relaxed);  // see above
        return SubmitStatus::TimedOut;
      }
    }
    // Admitted: count the jobs in flight *before* they become visible to
    // workers (both under inbox_mutex_, so a taker that sees a job also
    // sees the incremented count — its completion can never drive
    // jobs_in_flight_ below zero).
    // relaxed: moving away from quiescence wakes nobody; only the
    // decrement back toward zero (complete_job) joins the cv protocol.
    jobs_in_flight_.fetch_add(n, std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
      detail::Job* j = jobs[i];
      inbox_[static_cast<std::size_t>(j->job->priority)].push_back(j);
      if (j->job->deadline != clock::time_point::max()) ++inbox_deadlines_;
    }
    inbox_size_ += n;
  }
  {
    support::LockGuard lock(idle_mutex_);
    // release, under idle_mutex_: one bump + notify admits all n jobs;
    // pairs with the idle loop's acquire reads and closes the miss/park
    // race (see the work_epoch_ declaration).
    work_epoch_.fetch_add(1, std::memory_order_release);
  }
  idle_cv_.notify_all();
  adm_admitted_.fetch_add(n, std::memory_order_relaxed);  // see above
  return SubmitStatus::Admitted;
}

void Scheduler::abandon(detail::Job* job) {
  // Staged but never admitted (its Batch was destroyed): jobs_in_flight_
  // was never incremented. Mark the job done so its handle's wait()
  // returns — and throws, because the future state is unfulfilled.
  detail::JobState* js = job->job;
  job->result->release();  // the producer's reference: it will never run
  finish_without_run(*js, JobOutcome::Abandoned, /*was_admitted=*/false);
}

void Scheduler::finish_without_run(detail::JobState& js, JobOutcome outcome,
                                   bool was_admitted) {
  const std::uint64_t waited = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - js.submitted)
          .count());
  // All three relaxed: the done flag's release-store below publishes them
  // to acquire-side readers (same contract as complete_job). The whole
  // wait was queueing — the job never ran, so service time is zero.
  js.queue_us.store(waited, std::memory_order_relaxed);
  js.latency_us.store(waited, std::memory_order_relaxed);  // ditto
  js.outcome.store(outcome, std::memory_order_relaxed);    // ditto
  {
    support::LockGuard lock(quiescent_mutex_);
    // release (under quiescent_mutex_ for the cv protocol): pairs with
    // wait_job's acquire so the waiter sees the outcome and timings.
    js.done.store(true, std::memory_order_release);
    if (was_admitted) {
      // acq_rel: the step toward zero must be ordered with drain()'s
      // acquire read, exactly as in complete_job.
      jobs_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
  quiescent_cv_.notify_all();
  js.keep_alive.reset();  // may free js: nothing below may touch it
}

detail::Job* Scheduler::take_injected(detail::Worker& taker) {
  constexpr std::size_t kAdmitBatch = 4;
  /// Bounded shed work per call: a take under a deadline-heavy backlog
  /// sheds at most this many expired jobs, then returns and lets the next
  /// find_work round continue — keeping the inbox critical section short.
  constexpr std::size_t kShedBatch = 8;
  detail::Job* first = nullptr;
  detail::Job* extras[kAdmitBatch - 1];
  std::size_t n_extras = 0;
  detail::Job* shed[kShedBatch];
  std::size_t n_shed = 0;
  bool notify_space = false;
  {
    support::LockGuard lock(inbox_mutex_);
    if (inbox_size_ == 0) return nullptr;
    // One clock read per take, and only on streams that carry deadlines.
    const auto now = inbox_deadlines_ > 0
                         ? std::chrono::steady_clock::now()
                         : std::chrono::steady_clock::time_point::min();
    const std::size_t before = inbox_size_;
    for (auto& bucket : inbox_) {  // highest priority class first
      while (!bucket.empty() && n_extras + 1 < kAdmitBatch &&
             n_shed < kShedBatch) {
        detail::Job* j = bucket.front();
        const bool has_deadline =
            j->job->deadline != std::chrono::steady_clock::time_point::max();
        const bool expired = has_deadline && now >= j->job->deadline;
        bucket.pop_front();
        --inbox_size_;
        if (has_deadline) --inbox_deadlines_;
        if (expired) {
          shed[n_shed++] = j;
        } else if (first == nullptr) {
          first = j;
        } else {
          extras[n_extras++] = j;
        }
      }
      if ((first != nullptr && n_extras + 1 >= kAdmitBatch) ||
          n_shed >= kShedBatch)
        break;
    }
    notify_space = opts_.inbox_capacity != 0 && space_waiters_ > 0 &&
                   inbox_size_ < before;
  }
  // Wake blocked submitters outside the lock — they reacquire it in their
  // wait predicate anyway.
  if (notify_space) inbox_space_cv_.notify_all();
  // Expired jobs never run: resolve their handles as Shed and charge the
  // shedding worker's counter. They were admitted, so each retires one
  // jobs_in_flight_ slot. Not counted as inbox_takes — the acquisition
  // identities only track jobs that execute. The counter is bumped before
  // the handles resolve: finish_without_run wakes waiters, and a woken
  // client reading WorkerCounters must already see its job's shed.
  if (n_shed > 0) taker.counters().shed += n_shed;
  for (std::size_t i = 0; i < n_shed; ++i) {
    detail::JobState* js = shed[i]->job;
    shed[i]->result->release();  // the producer's reference: never runs
    finish_without_run(*js, JobOutcome::Shed, /*was_admitted=*/true);
  }
  // The extras become ordinary deque work (stealable); their acquisition
  // is counted when they are popped or stolen, so the work-accounting
  // identities still see exactly one source per job. Push newest first:
  // LIFO pops then run them oldest-first after `first`.
  for (std::size_t i = n_extras; i > 0; --i)
    taker.deque().push_bottom(extras[i - 1]);
  return first;
}

void Scheduler::tasks_finished(detail::JobState& js, std::uint64_t n) {
  // acq_rel: the release half publishes the effects of every task this
  // worker's credits stand for (program order, or the deque/future edges
  // that carried a credit-paid child) to whichever thread performs the
  // final decrement; the acquire half makes the final decrementer see, via
  // the release sequence of every earlier RMW on the count, every other
  // task's effects before completing the job.
  if (js.outstanding.fetch_sub(n, std::memory_order_acq_rel) == n)
    complete_job(js);
}

void Scheduler::complete_job(detail::JobState& js) {
  // relaxed: the done flag's release-store below publishes the latency
  // (and the counter delta) to acquire-side readers.
  js.latency_us.store(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - js.submitted)
              .count()),
      std::memory_order_relaxed);  // see above
  if (js.want_counters) {
    // The acq_rel fetch_sub chain on js.outstanding ordered every event of
    // the job before this read, so the delta is complete.
    js.delta.per_worker.clear();
    for (std::size_t i = 0; i < workers_.size(); ++i)
      js.delta.per_worker.push_back(
          counters_since(workers_[i]->counters(), js.baseline[i]));
  }
  // relaxed: published by done's release-store below, like the latency.
  js.outcome.store(JobOutcome::Completed, std::memory_order_relaxed);
  {
    support::LockGuard lock(quiescent_mutex_);
    // release: publishes the job's results (latency, delta) to wait_job's
    // acquire read. Under quiescent_mutex_ so the store→notify pair cannot
    // slip between a waiter's predicate check and its sleep.
    js.done.store(true, std::memory_order_release);
    // acq_rel: the step toward zero must be ordered with drain()'s
    // acquire read (and with other completions' decrements).
    jobs_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  }
  quiescent_cv_.notify_all();
  js.keep_alive.reset();  // may free js: nothing below may touch it
}

void Scheduler::wait_job(detail::JobState& js) {
  // acquire pairs with complete_job/abandon's release-store: done == true
  // makes the job's results visible to this thread.
  if (js.done.load(std::memory_order_acquire)) return;
  support::UniqueLock lock(quiescent_mutex_);
  quiescent_cv_.wait(lock, [&js] {
    // acquire: same pairing as the fast path above.
    return js.done.load(std::memory_order_acquire);
  });
}

void Scheduler::drain() {
  support::UniqueLock lock(quiescent_mutex_);
  quiescent_cv_.wait(lock, [this] {
    // acquire pairs with complete_job's acq_rel decrement: at zero, every
    // completed job's effects are visible to the drainer.
    return jobs_in_flight_.load(std::memory_order_acquire) == 0;
  });
}

void Scheduler::prewarm(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i)
    workers_[i % workers_.size()]->put_stack(
        std::make_unique<Fiber>([] {}, opts_.stack_bytes));
}

CountersReport Scheduler::counters() const {
  CountersReport report;
  for (std::size_t i = 0; i < workers_.size(); ++i)
    report.per_worker.push_back(
        counters_since(workers_[i]->counters(), baseline_[i]));
  return report;
}

void Scheduler::reset_counters() {
  for (std::size_t i = 0; i < workers_.size(); ++i)
    baseline_[i] = workers_[i]->counters();
}

namespace {

/// The process-wide lease registry behind SharedScheduler::acquire. A
/// named struct (not function-statics) so the map can carry its
/// WSF_GUARDED_BY contract — capability attributes attach to members.
struct LeaseRegistry {
  struct Key {
    std::uint32_t workers;
    core::ForkPolicy policy;
    std::size_t stack_bytes;
    core::StealPolicy steal;
    core::VictimPolicy victim;
    bool operator<(const Key& o) const {
      return std::tie(workers, policy, stack_bytes, steal, victim) <
             std::tie(o.workers, o.policy, o.stack_bytes, o.steal, o.victim);
    }
  };
  support::Mutex mutex;
  std::map<Key, std::weak_ptr<SharedScheduler>> entries
      WSF_GUARDED_BY(mutex);
};

LeaseRegistry& lease_registry() {
  static LeaseRegistry registry;
  return registry;
}

}  // namespace

std::shared_ptr<SharedScheduler> SharedScheduler::acquire(
    const RuntimeOptions& opts) {
  RuntimeOptions resolved = opts;
  if (resolved.workers == 0)
    resolved.workers = std::max(1u, std::thread::hardware_concurrency());
  const LeaseRegistry::Key key{resolved.workers, resolved.policy,
                               resolved.stack_bytes, resolved.steal,
                               resolved.victim};

  LeaseRegistry& registry = lease_registry();
  support::LockGuard lock(registry.mutex);
  auto it = registry.entries.find(key);
  if (it != registry.entries.end())
    if (std::shared_ptr<SharedScheduler> live = it->second.lock())
      return live;
  std::shared_ptr<SharedScheduler> fresh(new SharedScheduler(resolved));
  registry.entries[key] = fresh;
  for (auto i = registry.entries.begin(); i != registry.entries.end();)
    i = i->second.expired() ? registry.entries.erase(i) : std::next(i);
  return fresh;
}

}  // namespace wsf::runtime
