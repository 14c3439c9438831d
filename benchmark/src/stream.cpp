// stream: graph-replay jobs through one long-lived Scheduler, the path that
// fib and sort bypass — admission, idle-worker wake, replay bookkeeping and
// park/wake. Each job's kind is drawn from the seed: 80% fig2(3), 10%
// fig4(6) for touch-heavy parks and wakes, 10% forkjoin(7,3) as a heavy
// tail.
//
// Phase A is an open loop: Poisson arrivals at 20k jobs/s, about a third
// of the scheduler's closed-loop capacity, so latency measures the
// scheduler rather than a backlog. One generator thread submits each job
// at its due time, spinning rather than sleeping, and each job's latency
// runs from when it was due — (submit − due) + ReplayResult::wall_us — so
// a generator stall is charged to the jobs it delays. The run is invalid
// if the generator falls more than 1% behind its own schedule.
//
// Phase B is a closed loop at saturation: batches of 16 with a window of
// four batches in flight, reporting completed jobs per second.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "bench.hpp"
#include "graphs/registry.hpp"
#include "runtime/pool.hpp"
#include "runtime/replay.hpp"
#include "stats.hpp"
#include "support/check.hpp"
#include "trace.hpp"

namespace rt = wsf::runtime;

namespace wsf_bench {

namespace {

constexpr double kRatePerS = 20000;
constexpr std::size_t kRingSlots = 256;
constexpr std::size_t kBatch = 16;
constexpr std::size_t kWindowBatches = 4;
/// One job in kSampleEvery has its node coverage checked and, in a traced
/// run, its spans recorded.
constexpr std::uint64_t kSampleEvery = 16;
constexpr std::uint32_t kSlotTrackBase = 1000;

struct Kind {
  const char* family;
  wsf::graphs::RegistryParams params;
};
const Kind kKinds[] = {{"fig2", {.size = 3}},
                       {"fig4", {.size = 6}},
                       {"forkjoin", {.size = 7, .size2 = 3}}};
constexpr std::size_t kNumKinds = std::size(kKinds);

/// Seeded hash of a job's index in its phase: its kind and whether it is
/// sampled depend on nothing else, however long the phases run.
std::uint64_t job_hash(std::uint64_t seed, std::uint64_t job) {
  std::uint64_t state = seed ^ (job * 0xd1b54a32d192ed03ULL);
  return splitmix64(state);
}

std::size_t kind_of(std::uint64_t hash) {
  const std::uint64_t r = hash % 10;
  return r < 8 ? 0 : r == 8 ? 1 : 2;
}

struct Slot {
  std::vector<std::unique_ptr<rt::GraphReplayer>> replayers;  // per kind
  bool busy = false;
  std::size_t kind = 0;
  std::uint64_t job = 0;
  bool sampled = false;
  std::int64_t due_ns = 0;
  std::int64_t sub_ns = 0;
  std::uint64_t span = 0;  ///< traced job span (0 = untraced)
};

/// What happened to the jobs of one phase, plus the per-job timings of the
/// open loop.
struct Tally {
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t wrong = 0;  ///< completed but failed a check
  std::uint64_t per_kind[kNumKinds] = {};
  std::vector<double> latency_us;  ///< +inf for jobs that did not complete
  std::vector<double> queue_us;
  std::vector<double> service_us;
  std::vector<double> late_us;
  std::vector<double> stage_ns;
  std::vector<double> submit_ns;
  std::vector<double> collect_ns;
  rt::WorkerCounters delta;
  double wall_s = 0;
  /// Open loop: the schedule's span over the generator's (1 = on time).
  double schedule_frac = 1;
  std::uint64_t failed() const {
    return offered - completed + wrong;
  }
};

class Stream {
 public:
  explicit Stream(const Options& opts) : opts_(opts) {}

  /// Graphs, scheduler, replayer ring, warmup. Returns graphs.gen_ms.
  double setup(Tracer* tracer) {
    sched_.reset();
    ring_.clear();
    dags_.clear();
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(tracer, "graphs.generate");
      for (const Kind& k : kKinds)
        dags_.push_back(wsf::graphs::make_named(k.family, k.params));
    }
    const double gen_ms = static_cast<double>(now_ns() - t0) / 1e6;
    sched_ = std::make_unique<rt::Scheduler>(
        rt::RuntimeOptions{.workers = kWorkers, .seed = opts_.seed});
    ring_.resize(kRingSlots);
    for (Slot& s : ring_)
      for (const auto& dag : dags_)
        s.replayers.push_back(std::make_unique<rt::GraphReplayer>(dag.graph));
    Tally warm;
    saturated(0, opts_.smoke ? 256 : 4096, nullptr, warm);
    return gen_ms;
  }

  /// Phase A: open loop at kRatePerS for `seconds`.
  void open_loop(double seconds, Tracer* tracer, Tally& t) {
    ScopedSpan phase(tracer, "phase.open");
    std::uint64_t gap_state = opts_.seed * 7 + 2;
    const rt::WorkerCounters before = sched_->counters().total();
    const std::int64_t t0 = now_ns() + 1000000;
    const auto horizon = t0 + static_cast<std::int64_t>(seconds * 1e9);
    double due = static_cast<double>(t0);
    std::int64_t last_due = t0;
    std::int64_t last_sub = t0;
    for (std::uint64_t i = 0;; ++i) {
      const double u =
          static_cast<double>(splitmix64(gap_state) >> 11) * 0x1.0p-53;
      due += -std::log1p(-u) / kRatePerS * 1e9;
      if (due >= static_cast<double>(horizon)) break;
      const std::size_t index = i % ring_.size();
      Slot& slot = ring_[index];
      if (slot.busy) finish(slot, index, phase.id(), tracer, t, true);
      const auto due_ns = static_cast<std::int64_t>(due);
      while (now_ns() < due_ns) {
      }
      const std::int64_t sub = now_ns();
      begin(slot, i, tracer);
      slot.due_ns = due_ns;
      slot.sub_ns = sub;
      rt::Batch batch(*sched_);
      stage(slot, batch, tracer, t);
      submit(batch, slot.span, slot.job + 1, tracer, t);
      last_due = due_ns;
      last_sub = sub;
    }
    for (std::size_t index = 0; index < ring_.size(); ++index)
      if (ring_[index].busy)
        finish(ring_[index], index, phase.id(), tracer, t, true);
    t.delta = rt::counters_since(sched_->counters().total(), before);
    t.wall_s = static_cast<double>(last_sub - t0) / 1e9;
    // The generator's achieved rate against its own schedule's rate.
    if (last_sub > t0)
      t.schedule_frac = static_cast<double>(last_due - t0) /
                        static_cast<double>(last_sub - t0);
  }

  /// Phase B (and warmup): closed loop, kWindowBatches batches of kBatch in
  /// flight, for at least `seconds` and `min_jobs`.
  void saturated(double seconds, std::uint64_t min_jobs, Tracer* tracer,
                 Tally& t) {
    ScopedSpan phase(tracer, "phase.saturated");
    const rt::WorkerCounters before = sched_->counters().total();
    const std::int64_t t0 = now_ns();
    const auto end = t0 + static_cast<std::int64_t>(seconds * 1e9);
    for (std::uint64_t b = 0; now_ns() < end || t.offered < min_jobs; ++b) {
      const std::size_t first = (b % kWindowBatches) * kBatch;
      const bool traced = tracer && b % kSampleEvery == 0;
      Tracer* tr = traced ? tracer : nullptr;
      {
        ScopedSpan span(tr, "collect", phase.id());
        for (std::size_t j = first; j < first + kBatch; ++j)
          if (ring_[j].busy) finish(ring_[j], j, 0, nullptr, t, false);
      }
      ScopedSpan batch_span(tr, "batch", phase.id());
      rt::Batch batch(*sched_);
      {
        ScopedSpan span(tr, "stage", batch_span.id());
        for (std::size_t j = first; j < first + kBatch; ++j) {
          begin(ring_[j], b * kBatch + (j - first), nullptr);
          stage(ring_[j], batch, nullptr, t);
        }
      }
      submit(batch, batch_span.id(), 0, tr, t);
    }
    for (std::size_t j = 0; j < kBatch * kWindowBatches; ++j)
      if (ring_[j].busy) finish(ring_[j], j, 0, nullptr, t, false);
    t.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    t.delta = rt::counters_since(sched_->counters().total(), before);
  }

  /// 1-worker service time of one job of each kind, ns: a batch of 64
  /// back-to-back replays per kind, median of three.
  std::vector<double> sequential_ns() {
    rt::Scheduler one({.workers = 1, .seed = opts_.seed});
    std::vector<double> per_kind;
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      std::vector<double> reps;
      for (int rep = 0; rep < 3; ++rep) {
        const std::int64_t t0 = now_ns();
        rt::Batch batch(one);
        for (std::size_t j = 0; j < 64; ++j)
          ring_[j].replayers[k]->stage(batch, {.job_counters = false});
        one.submit(std::move(batch));
        for (std::size_t j = 0; j < 64; ++j) {
          const rt::ReplayResult r = ring_[j].replayers[k]->collect();
          WSF_CHECK(r.outcome == rt::JobOutcome::Completed,
                    "sequential replay did not complete");
        }
        reps.push_back(static_cast<double>(now_ns() - t0) / 64);
      }
      per_kind.push_back(median(reps));
    }
    return per_kind;
  }

 private:
  void begin(Slot& slot, std::uint64_t job, Tracer* tracer) {
    slot.busy = true;
    const std::uint64_t hash = job_hash(opts_.seed, job);
    slot.kind = kind_of(hash);
    slot.job = job;
    slot.sampled = (hash >> 32) % kSampleEvery == 0;
    slot.span = tracer && slot.sampled ? tracer->open() : 0;
  }

  void stage(Slot& slot, rt::Batch& batch, Tracer* tracer, Tally& t) {
    Tracer* tr = slot.span ? tracer : nullptr;
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(tr, "stage", slot.span, slot.job + 1);
      slot.replayers[slot.kind]->stage(batch, {.job_counters = false});
    }
    if (tr) t.stage_ns.push_back(static_cast<double>(now_ns() - t0));
    ++t.offered;
    ++t.per_kind[slot.kind];
  }

  /// `job_id` is the trace's job id (0 = none).
  void submit(rt::Batch& batch, std::uint64_t parent, std::uint64_t job_id,
              Tracer* tracer, Tally& t) {
    Tracer* tr = parent ? tracer : nullptr;
    const std::int64_t t0 = now_ns();
    rt::SubmitStatus status;
    {
      ScopedSpan span(tr, "try_submit", parent, job_id);
      status = sched_->try_submit(batch);
    }
    if (tr) t.submit_ns.push_back(static_cast<double>(now_ns() - t0));
    // The caller drops a refused batch: its jobs resolve as Abandoned and
    // collect() reports them.
    if (status != rt::SubmitStatus::Admitted) t.rejected += batch.size();
  }

  /// Collects the slot's job and books its outcome; `open` also records the
  /// open-loop timings.
  void finish(Slot& slot, std::size_t index, std::uint64_t phase,
              Tracer* tracer, Tally& t, bool open) {
    Tracer* tr = slot.span ? tracer : nullptr;
    rt::GraphReplayer& replayer = *slot.replayers[slot.kind];
    rt::ReplayResult r;
    bool threw = false;
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(tr, "collect", slot.span, slot.job + 1);
      try {
        r = replayer.collect();
      } catch (const wsf::CheckError&) {
        threw = true;
        r.outcome = rt::JobOutcome::Completed;
      }
    }
    if (tr) t.collect_ns.push_back(static_cast<double>(now_ns() - t0));
    slot.busy = false;
    bool ok = !threw;
    switch (r.outcome) {
      case rt::JobOutcome::Completed:
        ++t.completed;
        if (ok && slot.sampled)
          ok = covers_every_node_once(
              replayer, dags_[slot.kind].graph.num_nodes());
        if (!ok) ++t.wrong;
        break;
      case rt::JobOutcome::Shed:
        ++t.shed;
        ok = false;
        break;
      default:
        ++t.abandoned;
        ok = false;
        break;
    }
    if (!open) return;
    const double late_us = static_cast<double>(slot.sub_ns - slot.due_ns) / 1e3;
    t.late_us.push_back(late_us);
    t.latency_us.push_back(
        ok ? late_us + static_cast<double>(r.wall_us)
           : std::numeric_limits<double>::infinity());
    if (!ok) return;
    t.queue_us.push_back(static_cast<double>(r.queue_us));
    t.service_us.push_back(static_cast<double>(r.service_us));
    if (!tr) return;
    const auto track = kSlotTrackBase + static_cast<std::uint32_t>(index);
    const std::int64_t admit = slot.sub_ns;
    const auto started = admit + static_cast<std::int64_t>(r.queue_us) * 1000;
    const auto done = admit + static_cast<std::int64_t>(r.wall_us) * 1000;
    tr->record("queue", admit, started, slot.span, slot.job + 1, track);
    tr->record("service", started, done, slot.span, slot.job + 1, track);
    tr->close(slot.span, "job", slot.due_ns, done, phase, slot.job + 1, track);
    tr->name_track(track, "job slot " + std::to_string(index));
  }

  bool covers_every_node_once(const rt::GraphReplayer& replayer,
                              std::size_t nodes) {
    seen_.assign(nodes, 0);
    std::size_t count = 0;
    for (const auto& order : replayer.worker_orders())
      for (const wsf::core::NodeId v : order) {
        if (v >= nodes || seen_[v]++ != 0) return false;
        ++count;
      }
    return count == nodes;
  }

  const Options& opts_;
  std::vector<wsf::graphs::GeneratedDag> dags_;
  std::unique_ptr<rt::Scheduler> sched_;
  std::vector<Slot> ring_;
  std::vector<std::uint8_t> seen_;
};

/// Checks one phase's books: every offered job ended exactly one way, and
/// the scheduler's shed count agrees with the outcomes seen.
void check_books(Report& report, const Tally& t, const char* phase) {
  std::ostringstream what;
  what << phase << ": completed " << t.completed << " + shed " << t.shed
       << " + rejected " << t.rejected << " == offered " << t.offered;
  report.check(t.completed + t.shed + t.rejected == t.offered &&
                   t.abandoned == t.rejected,
               what.str());
  report.check(t.shed == t.delta.shed,
               std::string(phase) + ": shed outcomes match the workers' count");
  report.check(t.schedule_frac >= 0.99,
               std::string(phase) + ": generator within 1% of its schedule (" +
                   std::to_string(t.schedule_frac) + ")");
  report.ops(t.offered, t.failed());
}

}  // namespace

void run_stream(const Options& opts, Report& report, Tracer* tracer) {
  Stream stream(opts);
  double gen_ms = 0;
  report.metric("setup_s",
                timed_setup([&] { gen_ms = stream.setup(tracer); }), "s");
  const double window_s = (tracer ? opts.seconds / 2 : opts.seconds);

  Tally a;
  stream.open_loop(0.6 * window_s, nullptr, a);
  check_books(report, a, "phase A");
  Tally b;
  stream.saturated(0.4 * window_s, 1, nullptr, b);
  check_books(report, b, "phase B");

  const double p50 = percentile(a.latency_us, 0.5);
  const double p99 = percentile(a.latency_us, 0.99);
  const double jobs_per_s = static_cast<double>(b.completed) / b.wall_s;
  report.metric("op_p50_ms", p50 / 1e3, "ms");
  report.metric("op_tail_ms", p99 / 1e3, "ms");
  report.metric("ops_per_s", jobs_per_s, "1/s");
  report.metric("lat_p50_us", p50, "us");
  report.metric("lat_p99_us", p99, "us");
  report.metric("jobs_per_s", jobs_per_s, "1/s");
  report.metric("gen.offered_per_s",
                static_cast<double>(a.offered) / a.wall_s, "1/s");
  report.note("phase A: " + std::to_string(a.latency_us.size()) +
              " latency samples at " +
              std::to_string(static_cast<int>(kRatePerS)) +
              " jobs/s offered; p99 has " +
              std::to_string(samples_above(a.latency_us.size(), 0.99)) +
              " samples above it");
  report.note("phase B: " + std::to_string(b.completed) + " jobs in " +
              std::to_string(b.wall_s) + " s");
  if (!tracer) return;

  add_runtime_counts(report, a.delta, static_cast<double>(a.offered));
  report.metric("graphs.gen_ms", gen_ms, "ms");
  report.metric("gen.late_p99_us", percentile(a.late_us, 0.99), "us");
  report.metric("inbox.queue_p50_us", percentile(a.queue_us, 0.5), "us");
  report.metric("inbox.queue_p99_us", percentile(a.queue_us, 0.99), "us");
  report.metric("job.service_p50_us", percentile(a.service_us, 0.5), "us");
  report.metric("job.service_p99_us", percentile(a.service_us, 0.99), "us");

  const std::uint64_t layers = tracer->open();
  const std::int64_t layers_start = now_ns();
  const UnitCosts costs = measure_unit_costs(opts, *tracer, layers);
  std::vector<double> seq_ns;
  {
    ScopedSpan span(tracer, "layers.sequential", layers);
    seq_ns = stream.sequential_ns();
  }
  tracer->close(layers, "phase.layers", layers_start, now_ns());
  add_unit_costs(report, costs);
  double seq_total_ns = 0;
  for (std::size_t k = 0; k < kNumKinds; ++k)
    seq_total_ns += static_cast<double>(b.per_kind[k]) * seq_ns[k];
  report.metric("seq_ms", seq_total_ns / static_cast<double>(b.offered) / 1e6,
                "ms");

  Tally ta;
  stream.open_loop(0.6 * window_s, tracer, ta);
  check_books(report, ta, "traced phase A");
  Tally tb;
  stream.saturated(0.4 * window_s, 1, tracer, tb);
  check_books(report, tb, "traced phase B");
  report.metric("inbox.submit_ns", median(ta.submit_ns), "ns");
  report.metric("replay.stage_ns", median(ta.stage_ns), "ns");
  report.metric("replay.collect_ns", median(ta.collect_ns), "ns");
  report.metric("trace.overhead_frac",
                percentile(ta.latency_us, 0.5) / p50 - 1, "ratio");
  add_budget(report, b.wall_s * 1e9,
             {{"sequential", seq_total_ns},
              {"steal", static_cast<double>(b.delta.steals) *
                            costs.deque_steal_ns}});
}

}  // namespace wsf_bench
