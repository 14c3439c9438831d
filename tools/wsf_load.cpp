// wsf-load — sustained-load harness for the scheduler-as-a-service path.
//
// Drives a stream of graph-replay jobs through ONE long-lived
// runtime::Scheduler from several submitter threads, using batched
// admission (runtime::Batch) and per-job completion handles, and reports
// service-side measures: throughput (jobs/sec), the admission-to-completion
// latency distribution (mean/p50/p95/p99/max, nearest-rank percentiles),
// the queue-time split (admission→first-run percentiles), admission
// accounting (submitted/completed/rejected/shed/blocked), and steady-state
// fiber-stack accounting — after the warmup jobs, a healthy service creates
// zero new fiber stacks (every job runs on recycled ones), which --strict
// turns into a nonzero exit for CI.
//
// Backpressure knobs exercise the bounded-admission path:
//   --inbox-cap=N        bound the scheduler inbox (0 = unbounded)
//   --admit=block|reject|timeout   what a submitter does when it is full
//   --offered-rate=R     open-loop pacing: offer R jobs/sec instead of
//                        closed-loop as-fast-as-possible
//   --deadline=D         per-job deadline (us); expired queued jobs are
//                        shed at take-time and reported as shed
//   --expect-overload    exit nonzero unless the run actually shed or
//                        rejected work (guards overload smokes in CI)
// Every run self-checks the admission identities:
//   completed + shed + rejected == jobs offered
//   admitted == completed + shed     (scheduler admission stats)
//
// Job mixes are deliberately unbalanced (the testpools-style shape):
//   uniform      every job is the same medium fork-join DAG
//   skewed       90% tiny fig2 jobs + 10% heavy fork-join jobs (heavy
//                tail: slots 0, 10, 20, … of the stream)
//   touch-heavy  alternating fig4 / fig2 jobs — many touch edges, so the
//                load is parks/wakes rather than spawns
//   steal-heavy  every job is a deep fork-join tree with unit leaves —
//                maximal fan-out per node of work, so throughput is
//                steal-path-bound (the --steal/--victim policy testbed)
//
//   ./build/tools/wsf-load --mix=skewed --jobs=12000 --warmup=1000 --strict
//   ./build/tools/wsf-load --mix=uniform --workers=2 --submitters=4
//   ./build/tools/wsf-load --inbox-cap=64 --admit=reject
//       --offered-rate=50000 --deadline=2000 --expect-overload
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/policy.hpp"
#include "graphs/registry.hpp"
#include "runtime/pool.hpp"
#include "runtime/replay.hpp"
#include "sched/options.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

using namespace wsf;

namespace {

struct MixKind {
  std::string family;
  graphs::RegistryParams params;
};

struct LoadConfig {
  std::string mix_name;
  std::vector<MixKind> kinds;
  /// kind index for the i-th job of the stream (the skew pattern).
  std::size_t (*kind_of)(std::uint64_t slot) = nullptr;
  std::uint32_t workers = 0;
  core::ForkPolicy policy = core::ForkPolicy::FutureFirst;
  core::StealPolicy steal = core::StealPolicy::One;
  core::VictimPolicy victim = core::VictimPolicy::Uniform;
  sched::TouchEnable touch_enable = sched::TouchEnable::TouchFirst;
  std::uint64_t jobs = 10000;
  std::uint64_t warmup = 1000;
  std::uint64_t batch = 16;
  std::uint32_t submitters = 2;
  /// Scheduler inbox capacity; 0 = unbounded (no backpressure).
  std::uint64_t inbox_cap = 0;
  /// Full-inbox behavior for the measured phase.
  runtime::SubmitPolicy admit = runtime::SubmitPolicy::Block;
  /// Bound for --admit=timeout, microseconds.
  std::uint64_t admit_timeout_us = 1000;
  /// Open-loop offered rate, jobs/sec; 0 = closed loop.
  double offered_rate = 0;
  /// Per-job deadline, microseconds; 0 = none.
  std::uint64_t deadline_us = 0;
  /// Failed-admission retries per batch (0 = give up immediately): after a
  /// Rejected/Timeout submission the submitter backs off (capped
  /// exponential) and re-offers the same staged batch up to this many
  /// times.
  std::uint64_t retry = 0;
};

struct LoadStats {
  std::uint64_t jobs = 0;  ///< jobs offered (the --jobs stream length)
  std::uint64_t wall_us = 0;
  double jobs_per_sec = 0;  ///< *completed* jobs per second
  double mean_us = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p95_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t max_us = 0;
  /// Queue-time (admission→first-run) percentiles over completed jobs —
  /// where overload shows up; service time is p*_us minus this component.
  std::uint64_t queue_p50_us = 0;
  std::uint64_t queue_p99_us = 0;
  // Admission accounting for the measured phase.
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  /// Failed admission: Reject fast-fails plus Timeout expiries.
  std::uint64_t rejected = 0;
  /// Admitted but deadline-expired before starting (never ran).
  std::uint64_t shed = 0;
  /// Jobs re-offered after a failed admission (--retry; one batch retry of
  /// n jobs counts n). submitted == jobs + retries by identity.
  std::uint64_t retries = 0;
  /// Jobs dropped after the whole --retry budget failed (== rejected, the
  /// terminal tally; reconciled against the scheduler's rejected/timed_out
  /// admission stats).
  std::uint64_t gave_up = 0;
  /// Submitter wall time spent blocked waiting for inbox space, ms.
  double blocked_ms = 0;
  /// Fiber stacks created during the measured phase (0 at steady state).
  std::uint64_t steady_fibers_created = 0;
  std::uint64_t fibers_created_total = 0;
  std::uint64_t stacks_reused = 0;
  std::uint64_t steals = 0;
  std::uint64_t migrations = 0;
  std::uint64_t batch_steals = 0;
  std::uint64_t batch_stolen_items = 0;
  std::uint64_t steal_backoffs = 0;
};

std::size_t kind_uniform(std::uint64_t) { return 0; }
std::size_t kind_skewed(std::uint64_t slot) { return slot % 10 == 0 ? 1 : 0; }
std::size_t kind_alternate(std::uint64_t slot) { return slot % 2; }

LoadConfig make_mix(const std::string& name) {
  LoadConfig cfg;
  cfg.mix_name = name;
  if (name == "uniform") {
    cfg.kinds = {{"forkjoin", {.size = 5, .size2 = 3}}};
    cfg.kind_of = kind_uniform;
  } else if (name == "skewed") {
    // The testpools shape: a stream of tiny jobs with a 10% heavy tail
    // (~20x the nodes), so a worker that grabs a heavy job forces the
    // others to drain the tiny ones around it.
    cfg.kinds = {{"fig2", {.size = 3}},
                 {"forkjoin", {.size = 7, .size2 = 3}}};
    cfg.kind_of = kind_skewed;
  } else if (name == "touch-heavy") {
    cfg.kinds = {{"fig4", {.size = 6}}, {"fig2", {.size = 6}}};
    cfg.kind_of = kind_alternate;
  } else if (name == "steal-heavy") {
    // Depth-7 perfect fork-join tree with unit-work leaves: 127 forks and
    // almost nothing else per job, so the deques churn and the workers
    // live in the steal path — the mix where steal/victim policy choices
    // actually move throughput.
    cfg.kinds = {{"forkjoin", {.size = 7, .size2 = 1}}};
    cfg.kind_of = kind_uniform;
  } else {
    WSF_REQUIRE(false, "unknown --mix '" << name
                                         << "' (uniform | skewed | "
                                            "touch-heavy | steal-heavy)");
  }
  return cfg;
}

/// Latency slot value for jobs that never completed (rejected/shed) — they
/// carry no service latency and are excluded from the percentile stats.
constexpr std::uint64_t kNoLatency = ~std::uint64_t{0};

/// Per-phase admission outcome tallies, accumulated by the submitters.
struct PhaseCounts {
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> gave_up{0};
};

/// One submitter thread: pulls batch-sized job ranges off the shared
/// cursor, stages each job's replay into a runtime::Batch (one admission
/// per batch), then collects the handles and records per-job latency and
/// queue time. Replayer arenas are per (batch slot, kind) and reused
/// across batches, so a submitter's steady state allocates nothing
/// graph-sized. Under --offered-rate the submitter paces admissions
/// open-loop: batch `start` is offered at t0 + start/rate, regardless of
/// how far completion has fallen behind — the pattern that actually
/// overloads a service.
void submitter_loop(runtime::Scheduler& sched, const LoadConfig& cfg,
                    const std::vector<graphs::GeneratedDag>& dags,
                    std::atomic<std::uint64_t>& cursor, std::uint64_t limit,
                    std::chrono::steady_clock::time_point t0,
                    PhaseCounts& counts,
                    std::vector<std::uint64_t>* latencies,
                    std::vector<std::uint64_t>* queues) {
  std::vector<std::vector<std::unique_ptr<runtime::GraphReplayer>>> arenas(
      cfg.batch);
  for (auto& per_kind : arenas)
    for (const auto& dag : dags)
      per_kind.push_back(
          std::make_unique<runtime::GraphReplayer>(dag.graph));
  runtime::ReplayOptions opts;
  opts.touch_enable = cfg.touch_enable;
  opts.job_counters = false;  // per-job baselines would allocate per job
  opts.deadline = std::chrono::microseconds(cfg.deadline_us);
  runtime::AdmitOptions admit_opts;
  admit_opts.policy = cfg.admit;
  admit_opts.timeout = std::chrono::microseconds(cfg.admit_timeout_us);

  while (true) {
    const std::uint64_t start = cursor.fetch_add(cfg.batch);
    if (start >= limit) break;
    const std::uint64_t n = std::min(cfg.batch, limit - start);
    if (cfg.offered_rate > 0) {
      std::this_thread::sleep_until(
          t0 + std::chrono::microseconds(static_cast<std::uint64_t>(
                   1e6 * static_cast<double>(start) / cfg.offered_rate)));
    }
    bool admitted = true;
    {
      runtime::Batch batch(sched);
      for (std::uint64_t i = 0; i < n; ++i)
        arenas[i][cfg.kind_of(start + i)]->stage(batch, opts);
      // A failed try_submit leaves the staged batch intact, so --retry can
      // re-offer the same jobs after a capped-exponential backoff (the
      // client-side twin of the workers' failed-steal backoff).
      std::uint64_t attempts = 0;
      std::uint64_t backoff_us = 0;
      constexpr std::uint64_t kRetryStartUs = 50;
      constexpr std::uint64_t kRetryCapUs = 2000;
      for (;;) {
        admitted = sched.try_submit(batch, admit_opts) ==
                   runtime::SubmitStatus::Admitted;
        if (admitted || attempts >= cfg.retry) break;
        ++attempts;
        counts.retries.fetch_add(n, std::memory_order_relaxed);
        backoff_us = backoff_us == 0 ? kRetryStartUs
                                     : std::min(backoff_us * 2, kRetryCapUs);
        std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      }
      // A still-unadmitted batch is dropped here (scope exit): its jobs
      // resolve as Abandoned, which collect() below reports without
      // running anything.
    }
    if (!admitted) {
      counts.rejected.fetch_add(n, std::memory_order_relaxed);
      counts.gave_up.fetch_add(n, std::memory_order_relaxed);
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      const runtime::ReplayResult r =
          arenas[i][cfg.kind_of(start + i)]->collect();
      switch (r.outcome) {
        case runtime::JobOutcome::Completed:
          counts.completed.fetch_add(1, std::memory_order_relaxed);
          if (latencies) (*latencies)[start + i] = r.wall_us;
          if (queues) (*queues)[start + i] = r.queue_us;
          break;
        case runtime::JobOutcome::Shed:
          counts.shed.fetch_add(1, std::memory_order_relaxed);
          break;
        default:  // Abandoned — already tallied as rejected above
          break;
      }
    }
  }
}

void run_phase(runtime::Scheduler& sched, const LoadConfig& cfg,
               const std::vector<graphs::GeneratedDag>& dags,
               std::uint64_t total_jobs, PhaseCounts& counts,
               std::vector<std::uint64_t>* latencies,
               std::vector<std::uint64_t>* queues) {
  std::atomic<std::uint64_t> cursor{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> submitters;
  submitters.reserve(cfg.submitters);
  for (std::uint32_t s = 0; s < cfg.submitters; ++s)
    submitters.emplace_back([&] {
      submitter_loop(sched, cfg, dags, cursor, total_jobs, t0, counts,
                     latencies, queues);
    });
  for (auto& t : submitters) t.join();
  sched.drain();
}

/// Nearest-rank percentile over the first `n` entries of a sorted vector:
/// rank = ceil(q*n), 1-based. (The previous floor(q*n) index was one rank
/// high for every non-integral q*n — e.g. p50 of 4 samples read sorted[2],
/// the 3rd value, instead of the 2nd.)
std::uint64_t pct(const std::vector<std::uint64_t>& sorted, std::size_t n,
                  double q) {
  if (n == 0) return 0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return sorted[rank - 1];
}

LoadStats run_load(const LoadConfig& cfg) {
  std::vector<graphs::GeneratedDag> dags;
  for (const MixKind& kind : cfg.kinds)
    dags.push_back(graphs::make_named(kind.family, kind.params));

  runtime::RuntimeOptions opts;
  opts.workers = cfg.workers;
  opts.policy = cfg.policy;
  opts.steal = cfg.steal;
  opts.victim = cfg.victim;
  // Replay bodies are flat loops; a small stack keeps the pooled set cheap.
  opts.stack_bytes = 128 * 1024;
  opts.inbox_capacity = cfg.inbox_cap;
  runtime::Scheduler sched(opts);

  // Warmup: same submitters, same batches, same mix — its purpose is to
  // reach the service's peak concurrent-fiber demand so the measured phase
  // runs entirely on recycled stacks. Runs closed-loop with blocking
  // admission and no deadlines whatever the measured phase uses: shedding
  // or rejecting warmup jobs would leave the stack pool cold. Peak demand
  // is stochastic (it depends on how parks and steals interleave), so warm
  // until a full round creates no new stack, then pre-provision a slack
  // margin, dealt across the workers' free lists, that absorbs scheduling
  // variance.
  LoadConfig warm_cfg = cfg;
  warm_cfg.admit = runtime::SubmitPolicy::Block;
  warm_cfg.offered_rate = 0;
  warm_cfg.deadline_us = 0;
  warm_cfg.retry = 0;  // blocking admission never fails, nothing to retry
  std::uint64_t created = sched.counters().total().fibers_created;
  for (int round = 0; round < 8; ++round) {
    PhaseCounts warm_counts;
    run_phase(sched, warm_cfg, dags, cfg.warmup, warm_counts, nullptr,
              nullptr);
    const std::uint64_t now = sched.counters().total().fibers_created;
    if (now == created && round > 0) break;
    created = now;
  }
  sched.prewarm(2 * sched.num_workers() + 32);
  const runtime::WorkerCounters before = sched.counters().total();
  const runtime::AdmissionStats adm_before = sched.admission();

  std::vector<std::uint64_t> latencies(cfg.jobs, kNoLatency);
  std::vector<std::uint64_t> queues(cfg.jobs, kNoLatency);
  PhaseCounts counts;
  const auto t0 = std::chrono::steady_clock::now();
  run_phase(sched, cfg, dags, cfg.jobs, counts, &latencies, &queues);
  const auto wall = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - t0);
  const runtime::WorkerCounters after = sched.counters().total();
  const runtime::WorkerCounters delta = runtime::counters_since(after, before);
  const runtime::AdmissionStats adm_after = sched.admission();

  LoadStats stats;
  stats.jobs = cfg.jobs;
  stats.completed = counts.completed.load();
  stats.shed = counts.shed.load();
  stats.rejected = counts.rejected.load();
  stats.retries = counts.retries.load();
  stats.gave_up = counts.gave_up.load();
  stats.submitted = adm_after.submitted - adm_before.submitted;
  stats.blocked_ms =
      static_cast<double>(adm_after.blocked_us - adm_before.blocked_us) /
      1000.0;

  // The run validates its own books before reporting: every offered job
  // ended exactly one way, and the scheduler's view agrees with the
  // tool's. (`shed` additionally cross-checks the worker-side counter.)
  WSF_CHECK(stats.completed + stats.shed + stats.rejected == cfg.jobs,
            "admission accounting leak: " << stats.completed << " completed + "
                                          << stats.shed << " shed + "
                                          << stats.rejected << " rejected != "
                                          << cfg.jobs << " offered");
  WSF_CHECK(stats.submitted == cfg.jobs + stats.retries,
            "scheduler saw " << stats.submitted << " submissions for "
                             << cfg.jobs << " offered + " << stats.retries
                             << " retried jobs");
  // Every failed submission attempt the scheduler recorded was either
  // retried or terminally given up on by a submitter — the retry loop's
  // books against the scheduler's.
  WSF_CHECK((adm_after.rejected - adm_before.rejected) +
                    (adm_after.timed_out - adm_before.timed_out) ==
                stats.retries + stats.gave_up,
            "failed-admission accounting leak: scheduler rejected/timed out "
                << (adm_after.rejected - adm_before.rejected) << "/"
                << (adm_after.timed_out - adm_before.timed_out)
                << " submissions, submitters retried " << stats.retries
                << " and gave up on " << stats.gave_up);
  WSF_CHECK(stats.shed == delta.shed,
            "tool observed " << stats.shed << " shed jobs but workers shed "
                             << delta.shed);
  WSF_CHECK((adm_after.admitted - adm_before.admitted) ==
                stats.completed + stats.shed,
            "admitted != completed + shed: "
                << (adm_after.admitted - adm_before.admitted) << " vs "
                << stats.completed << " + " << stats.shed);

  stats.wall_us = static_cast<std::uint64_t>(wall.count());
  stats.jobs_per_sec = stats.wall_us == 0
                           ? 0
                           : 1e6 * static_cast<double>(stats.completed) /
                                 static_cast<double>(stats.wall_us);
  // Latency stats cover completed jobs only (kNoLatency sentinels sort to
  // the back); a fully-shed run reports zeros rather than reading past the
  // data.
  std::sort(latencies.begin(), latencies.end());
  std::sort(queues.begin(), queues.end());
  const auto n_done = static_cast<std::size_t>(stats.completed);
  double sum = 0;
  for (std::size_t i = 0; i < n_done; ++i)
    sum += static_cast<double>(latencies[i]);
  stats.mean_us = n_done == 0 ? 0 : sum / static_cast<double>(n_done);
  stats.p50_us = pct(latencies, n_done, 0.50);
  stats.p95_us = pct(latencies, n_done, 0.95);
  stats.p99_us = pct(latencies, n_done, 0.99);
  stats.max_us = n_done == 0 ? 0 : latencies[n_done - 1];
  stats.queue_p50_us = pct(queues, n_done, 0.50);
  stats.queue_p99_us = pct(queues, n_done, 0.99);
  stats.steady_fibers_created = delta.fibers_created;
  stats.fibers_created_total = after.fibers_created;
  stats.stacks_reused = delta.stacks_reused;
  stats.steals = delta.steals;
  stats.migrations = delta.migrations;
  stats.batch_steals = delta.batch_steals;
  stats.batch_stolen_items = delta.batch_stolen_items;
  stats.steal_backoffs = delta.steal_backoffs;
  return stats;
}

std::uint32_t resolved_workers(const LoadConfig& cfg) {
  return cfg.workers == 0 ? std::thread::hardware_concurrency()
                          : cfg.workers;
}

void add_stat_columns(support::Table& table, const LoadConfig& cfg,
                      const LoadStats& stats) {
  table.add(cfg.mix_name)
      .add(resolved_workers(cfg))
      .add(core::to_string(cfg.policy))
      .add(core::to_string(cfg.steal))
      .add(core::to_string(cfg.victim))
      .add(sched::to_string(cfg.touch_enable))
      .add(stats.jobs)
      .add(cfg.batch)
      .add(cfg.submitters)
      .add(cfg.inbox_cap)
      .add(runtime::to_string(cfg.admit))
      .add(cfg.offered_rate)
      .add(cfg.deadline_us)
      .add(static_cast<double>(stats.wall_us) / 1000.0)
      .add(stats.jobs_per_sec)
      .add(stats.mean_us)
      .add(stats.p50_us)
      .add(stats.p95_us)
      .add(stats.p99_us)
      .add(stats.max_us)
      .add(stats.queue_p50_us)
      .add(stats.queue_p99_us)
      .add(stats.submitted)
      .add(stats.completed)
      .add(stats.rejected)
      .add(stats.retries)
      .add(stats.gave_up)
      .add(stats.shed)
      .add(stats.blocked_ms)
      .add(stats.steady_fibers_created)
      .add(stats.stacks_reused)
      .add(stats.steals)
      .add(stats.migrations)
      .add(stats.batch_steals)
      .add(stats.batch_stolen_items)
      .add(stats.steal_backoffs);
}

const std::vector<std::string> kStatHeaders = {
    "mix",          "workers",      "policy",
    "steal",        "victim",
    "touch",        "jobs",         "batch",
    "submitters",   "inbox_cap",    "admit",
    "offered_rate", "deadline_us",  "wall_ms",
    "jobs_per_sec", "mean_us",      "p50_us",
    "p95_us",       "p99_us",       "max_us",
    "queue_p50_us", "queue_p99_us", "submitted",
    "completed",    "rejected",     "retries",
    "gave_up",      "shed",
    "blocked_ms",   "steady_fibers_created",
    "stacks_reused", "steals",      "migrations",
    "batch_steals", "batch_stolen_items", "steal_backoffs"};

void write_rendered(const std::string& rendered, const std::string& path) {
  if (path.empty()) {
    std::fputs(rendered.c_str(), stdout);
    return;
  }
  std::ofstream file(path);
  WSF_REQUIRE(file.good(), "cannot open '" << path << "'");
  file << rendered;
  WSF_REQUIRE(file.good(), "write to '" << path << "' failed");
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args(
      "wsf-load — sustained-load harness: streams batched graph-replay "
      "jobs through one long-lived scheduler from several submitter "
      "threads and reports jobs/sec, latency percentiles (with the "
      "queue/service split), admission accounting under backpressure "
      "(--inbox-cap/--admit/--offered-rate/--deadline), and steady-state "
      "fiber-stack accounting");
  auto& workers = args.add_int("workers", 0,
                               "worker threads (0 = hardware concurrency)");
  auto& policy = args.add_string("policy", "future-first",
                                 "fork policy (future-first | parent-first)");
  auto& steal = args.add_string("steal", "one",
                                "steal-amount policy (one | half): how much "
                                "a thief claims per successful steal");
  auto& victim = args.add_string("victim", "uniform",
                                 "victim-selection policy (uniform | "
                                 "last-victim | nearest)");
  auto& touch = args.add_string("touch", "touch-first",
                                "touch-enable rule (touch-first | "
                                "continuation-first)");
  auto& mix = args.add_string("mix", "skewed",
                              "job mix: uniform | skewed (90% tiny + 10% "
                              "heavy) | touch-heavy | steal-heavy");
  auto& jobs = args.add_int("jobs", 10000, "measured jobs");
  auto& warmup = args.add_int("warmup", 1000,
                              "warmup jobs before measuring (fills the "
                              "fiber-stack pool)");
  auto& batch = args.add_int("batch", 16, "jobs admitted per batch");
  auto& submitters = args.add_int("submitters", 2,
                                  "concurrent submitter threads");
  auto& inbox_cap = args.add_int("inbox-cap", 0,
                                 "scheduler inbox capacity in jobs "
                                 "(0 = unbounded, no backpressure)");
  auto& admit = args.add_string(
      "admit", "block",
      "full-inbox policy: block | reject | timeout (--policy stays the "
      "fork policy)");
  auto& admit_timeout = args.add_int("admit-timeout", 1000,
                                     "bound for --admit=timeout, us");
  auto& offered_rate = args.add_double(
      "offered-rate", 0,
      "open-loop offered load, jobs/sec (0 = closed loop); rates above "
      "sustainable throughput overload the service");
  auto& deadline = args.add_int(
      "deadline", 0,
      "per-job deadline in us (0 = none); jobs still queued past it are "
      "shed");
  auto& retry = args.add_int(
      "retry", 0,
      "re-offer a Rejected/Timeout batch up to N times with capped "
      "exponential backoff before giving it up (reported as "
      "retries/gave_up)");
  auto& expect_overload = args.add_bool(
      "expect-overload", false,
      "exit nonzero unless the run shed or rejected at least one job "
      "(for CI overload smokes)");
  auto& strict = args.add_bool(
      "strict", false,
      "exit nonzero if the measured phase created any fiber stack "
      "(steady state must run entirely on recycled stacks)");
  auto& format = args.add_string("format", "table", "table | csv | json");
  auto& out = args.add_string("out", "",
                              "write the rendered output to this file "
                              "instead of stdout");

  // Argument handling must not escape main: an uncaught CheckError (e.g.
  // --workers=abc or --jobs=0) would terminate with SIGABRT and no usable
  // diagnostic. Exit 2 = bad invocation, per the tools' convention.
  LoadConfig cfg;
  try {
    if (!args.parse(argc, argv)) return 0;
    cfg = make_mix(mix.value);
    cfg.workers = static_cast<std::uint32_t>(workers.value);
    cfg.policy = core::fork_policy_from_string(policy.value);
    cfg.steal = core::steal_policy_from_string(steal.value);
    cfg.victim = core::victim_policy_from_string(victim.value);
    cfg.touch_enable = sched::touch_enable_from_string(touch.value);
    WSF_REQUIRE(jobs.value > 0, "--jobs must be positive");
    WSF_REQUIRE(warmup.value > 0, "--warmup must be positive");
    WSF_REQUIRE(batch.value > 0, "--batch must be positive");
    WSF_REQUIRE(submitters.value > 0, "--submitters must be positive");
    WSF_REQUIRE(inbox_cap.value >= 0, "--inbox-cap must be >= 0");
    WSF_REQUIRE(admit_timeout.value > 0, "--admit-timeout must be positive");
    WSF_REQUIRE(offered_rate.value >= 0, "--offered-rate must be >= 0");
    WSF_REQUIRE(deadline.value >= 0, "--deadline must be >= 0");
    WSF_REQUIRE(admit.value == "block" || admit.value == "reject" ||
                    admit.value == "timeout",
                "unknown --admit '" << admit.value
                                    << "' (block | reject | timeout)");
    cfg.jobs = static_cast<std::uint64_t>(jobs.value);
    cfg.warmup = static_cast<std::uint64_t>(warmup.value);
    cfg.batch = static_cast<std::uint64_t>(batch.value);
    cfg.submitters = static_cast<std::uint32_t>(submitters.value);
    cfg.inbox_cap = static_cast<std::uint64_t>(inbox_cap.value);
    cfg.admit = admit.value == "reject"    ? runtime::SubmitPolicy::Reject
                : admit.value == "timeout" ? runtime::SubmitPolicy::Timeout
                                           : runtime::SubmitPolicy::Block;
    cfg.admit_timeout_us = static_cast<std::uint64_t>(admit_timeout.value);
    cfg.offered_rate = offered_rate.value;
    cfg.deadline_us = static_cast<std::uint64_t>(deadline.value);
    WSF_REQUIRE(retry.value >= 0, "--retry must be >= 0");
    cfg.retry = static_cast<std::uint64_t>(retry.value);
    // A Block/Timeout batch larger than the inbox can never be admitted —
    // the scheduler refuses it, so refuse the invocation up front.
    WSF_REQUIRE(cfg.inbox_cap == 0 ||
                    cfg.admit == runtime::SubmitPolicy::Reject ||
                    cfg.batch <= cfg.inbox_cap,
                "--batch (" << cfg.batch << ") exceeds --inbox-cap ("
                            << cfg.inbox_cap
                            << "); blocking admission would deadlock");
    WSF_REQUIRE(format.value == "table" || format.value == "csv" ||
                    format.value == "json",
                "unknown --format '" << format.value
                                     << "' (table | csv | json)");
  } catch (const CheckError& e) {
    std::fprintf(stderr, "wsf-load: %s\n", e.what());
    return 2;
  }

  try {
    const LoadStats stats = run_load(cfg);
    support::Table table(kStatHeaders);
    table.row();
    add_stat_columns(table, cfg, stats);
    write_rendered(format.value == "csv"    ? table.to_csv()
                   : format.value == "json" ? table.to_json()
                                            : table.to_string(),
                   out.value);
    std::fprintf(
        stderr,
        "wsf-load: %llu jobs (%s mix) at %.0f jobs/sec, p99 %llu us "
        "(queue %llu us), %llu rejected, %llu shed, %llu steady-state "
        "fiber stacks created%s%s\n",
        static_cast<unsigned long long>(stats.jobs), cfg.mix_name.c_str(),
        stats.jobs_per_sec, static_cast<unsigned long long>(stats.p99_us),
        static_cast<unsigned long long>(stats.queue_p99_us),
        static_cast<unsigned long long>(stats.rejected),
        static_cast<unsigned long long>(stats.shed),
        static_cast<unsigned long long>(stats.steady_fibers_created),
        out.value.empty() ? "" : " -> ", out.value.c_str());
    if (strict.value && stats.steady_fibers_created != 0) {
      std::fprintf(stderr,
                   "wsf-load: --strict: measured phase created %llu fiber "
                   "stacks (expected 0 at steady state)\n",
                   static_cast<unsigned long long>(
                       stats.steady_fibers_created));
      return 3;
    }
    if (expect_overload.value && stats.rejected + stats.shed == 0) {
      std::fprintf(stderr,
                   "wsf-load: --expect-overload: run completed every job "
                   "(no shedding or rejection happened)\n");
      return 4;
    }
  } catch (const CheckError& e) {
    std::fprintf(stderr, "wsf-load: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wsf-load: %s\n", e.what());
    return 1;
  }
  return 0;
}
