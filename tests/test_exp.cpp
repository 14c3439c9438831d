// Sweep subsystem: spec expansion, replicate aggregation, concurrent
// execution determinism, sharding/checkpoint/merge, and CSV/JSON emission.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/check.hpp"

#include "core/builder.hpp"
#include "core/policy.hpp"
#include "exp/checkpoint.hpp"
#include "exp/sweep.hpp"
#include "graphs/registry.hpp"
#include "sched/harness.hpp"
#include "sched/simulator.hpp"
#include "support/rng.hpp"

namespace wsf {
namespace {

using core::ForkPolicy;
using sched::TouchEnable;

exp::SweepSpec small_spec() {
  exp::SweepSpec spec;
  spec.graphs = {{"fig4", {.size = 4}, {}}, {"fig6a", {.size = 4}, {}}};
  spec.procs = {1, 2};
  spec.policies = {ForkPolicy::FutureFirst, ForkPolicy::ParentFirst};
  spec.touch_enables = {TouchEnable::TouchFirst};
  spec.cache_lines = {0, 4};
  spec.stall_prob = 0.25;
  spec.seeds = 3;
  spec.seed_base = 7;
  return spec;
}

TEST(SweepSpec, ExpandsTheFullCartesianProduct) {
  const auto spec = small_spec();
  const auto configs = exp::expand_spec(spec);
  // graphs(2) × cache(2) × procs(2) × policies(2) × touch(1)
  ASSERT_EQ(configs.size(), 16u);

  // Order: graphs × cache_lines × procs × policies × touch_enables.
  EXPECT_EQ(configs[0].family, "fig4");
  EXPECT_EQ(configs[0].options.cache_lines, 0u);
  EXPECT_EQ(configs[0].options.procs, 1u);
  EXPECT_EQ(configs[0].options.policy, ForkPolicy::FutureFirst);
  EXPECT_EQ(configs[1].options.policy, ForkPolicy::ParentFirst);
  EXPECT_EQ(configs[2].options.procs, 2u);
  EXPECT_EQ(configs[4].options.cache_lines, 4u);
  EXPECT_EQ(configs[8].family, "fig6a");

  for (const auto& cfg : configs) {
    // The graph-side cache annotation tracks the simulated geometry.
    EXPECT_EQ(cfg.params.cache_lines, cfg.options.cache_lines);
    EXPECT_EQ(cfg.options.stall_prob, spec.stall_prob);
    EXPECT_EQ(cfg.options.seed, spec.seed_base);
  }
  // Configurations differing only in P / policy share a generated graph.
  EXPECT_EQ(configs[0].graph_index, configs[3].graph_index);
  EXPECT_NE(configs[0].graph_index, configs[4].graph_index);
  EXPECT_EQ(configs[8].graph_index, 2u);

  const auto graphs = exp::generate_graphs(spec);
  ASSERT_EQ(graphs.size(), 4u);
  for (const auto& cfg : configs) ASSERT_LT(cfg.graph_index, graphs.size());
}

TEST(SweepSpec, RejectsEmptyAxes) {
  exp::SweepSpec spec = small_spec();
  spec.procs.clear();
  EXPECT_THROW(exp::expand_spec(spec), CheckError);
  spec = small_spec();
  spec.graphs.clear();
  EXPECT_THROW(exp::expand_spec(spec), CheckError);
  spec = small_spec();
  spec.seeds = 0;
  EXPECT_THROW(exp::expand_spec(spec), CheckError);
}

TEST(RunReplicates, MatchesPerSeedRunExperiment) {
  const auto gen = graphs::make_named("fig6a", {.size = 5, .cache_lines = 4});
  sched::SimOptions opts;
  opts.procs = 4;
  opts.cache_lines = 4;
  opts.stall_prob = 0.3;

  const std::uint64_t seed_base = 11;
  const std::uint64_t seeds = 4;
  const auto cell = exp::run_replicates(gen.graph, opts, seed_base, seeds);

  double dev_sum = 0, miss_sum = 0, steal_sum = 0, step_sum = 0;
  for (std::uint64_t k = 0; k < seeds; ++k) {
    opts.seed = seed_base + k;
    const auto r = sched::run_experiment(gen.graph, opts);
    dev_sum += static_cast<double>(r.deviations.deviations);
    miss_sum += static_cast<double>(r.additional_misses);
    steal_sum += static_cast<double>(r.par.steals);
    step_sum += static_cast<double>(r.par.steps);
  }
  const auto n = static_cast<double>(seeds);
  EXPECT_DOUBLE_EQ(cell.deviations.mean(), dev_sum / n);
  EXPECT_DOUBLE_EQ(cell.additional_misses.mean(), miss_sum / n);
  EXPECT_DOUBLE_EQ(cell.steals.mean(), steal_sum / n);
  EXPECT_DOUBLE_EQ(cell.steps.mean(), step_sum / n);
  EXPECT_EQ(cell.deviations.count(), seeds);
  EXPECT_EQ(cell.stats.nodes, gen.graph.num_nodes());
  // The sequential baseline is seed-independent.
  EXPECT_DOUBLE_EQ(exp::stderr_of(cell.seq_misses), 0.0);
}

TEST(Stderr, MatchesHandComputedValue) {
  support::Accumulator acc;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  // Sample variance 5/3; stderr = sqrt(5/3) / sqrt(4).
  EXPECT_NEAR(exp::stderr_of(acc), std::sqrt(5.0 / 3.0) / 2.0, 1e-12);

  // A single replicate has no spread estimate: stderr is NaN (rendered as
  // a missing cell), not a false-precision 0.
  support::Accumulator single;
  single.add(42.0);
  EXPECT_TRUE(std::isnan(exp::stderr_of(single)));
}

TEST(RunSweep, DeterministicAcrossWorkerCounts) {
  const auto spec = small_spec();
  const auto a = exp::run_sweep(spec, 1);
  const auto b = exp::run_sweep(spec, 4);
  const std::string csv_a = exp::to_table(a).to_csv();
  const std::string csv_b = exp::to_table(b).to_csv();
  EXPECT_FALSE(csv_a.empty());
  EXPECT_EQ(csv_a, csv_b);
}

TEST(RunSweep, RowsMatchDirectReplicateRuns) {
  const auto spec = small_spec();
  const auto result = exp::run_sweep(spec, 3);
  ASSERT_EQ(result.rows.size(), 16u);
  EXPECT_EQ(result.seeds, spec.seeds);

  const auto graphs = exp::generate_graphs(spec);
  for (const auto& row : result.rows) {
    const auto direct =
        exp::run_replicates(graphs[row.config.graph_index].graph,
                            row.config.options, spec.seed_base, spec.seeds);
    EXPECT_DOUBLE_EQ(row.cell.deviations.mean(), direct.deviations.mean());
    EXPECT_DOUBLE_EQ(row.cell.additional_misses.mean(),
                     direct.additional_misses.mean());
    EXPECT_DOUBLE_EQ(row.cell.steals.mean(), direct.steals.mean());
  }
}

TEST(TouchEnableParsing, RejectsUnknownNames) {
  EXPECT_EQ(sched::touch_enable_from_string("touch-first"),
            TouchEnable::TouchFirst);
  EXPECT_EQ(sched::touch_enable_from_string("continuation-first"),
            TouchEnable::ContinuationFirst);
  EXPECT_THROW(sched::touch_enable_from_string("touchfirst"), CheckError);
}

TEST(ForkPolicyParsing, RejectsUnknownNames) {
  for (const ForkPolicy p : {ForkPolicy::FutureFirst, ForkPolicy::ParentFirst})
    EXPECT_EQ(core::fork_policy_from_string(core::to_string(p)), p);
  EXPECT_THROW(core::fork_policy_from_string("futurefirst"), CheckError);
}

// core::pick_victim is the one victim chooser of the simulator and the
// runtime. Each row gives a thief, a fake emptiness array ('x' = empty
// deque) and the remembered victim, and either a fixed answer that draws
// nothing or kDraws: one uniform draw over the other processors (with
// nonempty_only, over those with work), the way a candidate list indexed
// by rng.below would choose.
TEST(StealPolicy, PickVictimRules) {
  using core::VictimPolicy;
  constexpr core::ProcId kDraws = ~core::ProcId{0};
  struct Row {
    const char* what;
    VictimPolicy policy;
    core::ProcId thief;
    std::string empty;
    core::ProcId last;
    bool nonempty_only;
    core::ProcId expect;
  };
  const std::vector<Row> rows = {
      {"one processor declines", VictimPolicy::Uniform, 0, ".", 0, false, 0},
      {"one processor, last-victim", VictimPolicy::LastVictim, 0, ".", 0,
       true, 0},
      {"one processor, nearest", VictimPolicy::Nearest, 0, ".", 0, false, 0},
      {"uniform over every other", VictimPolicy::Uniform, 1, "x.x.", 1, false,
       kDraws},
      {"uniform over the non-empty", VictimPolicy::Uniform, 1, "..x.x", 1,
       true, kDraws},
      {"uniform, nothing to steal", VictimPolicy::Uniform, 2, "xx.x", 2, true,
       2},
      {"uniform may pick an empty deque", VictimPolicy::Uniform, 2, "xxxx", 2,
       false, kDraws},
      {"last victim with work", VictimPolicy::LastVictim, 0, "..x.", 3, false,
       3},
      {"last victim emptied: uniform", VictimPolicy::LastVictim, 0, "...x", 3,
       false, kDraws},
      {"last victim emptied: uniform non-empty", VictimPolicy::LastVictim, 0,
       "..xx", 3, true, kDraws},
      {"no last victim: uniform", VictimPolicy::LastVictim, 1, "....", 1,
       false, kDraws},
      {"nearest skips empty neighbours", VictimPolicy::Nearest, 2, "..xx.", 2,
       false, 4},
      {"nearest wraps", VictimPolicy::Nearest, 3, ".xxx", 3, false, 0},
      {"nearest, every deque empty", VictimPolicy::Nearest, 1, "x.xx", 1,
       false, 1},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.what);
    const auto procs = static_cast<std::uint32_t>(row.empty.size());
    const auto is_empty = [&](core::ProcId v) { return row.empty[v] == 'x'; };
    std::vector<core::ProcId> candidates;
    for (core::ProcId q = 0; q < procs; ++q)
      if (q != row.thief && !(row.nonempty_only && is_empty(q)))
        candidates.push_back(q);
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      support::Xoshiro256 rng(seed);
      support::Xoshiro256 twin(seed);
      const core::ProcId got =
          core::pick_victim(row.policy, row.thief, procs, row.last,
                            row.nonempty_only, rng, is_empty);
      if (row.expect == kDraws)
        EXPECT_EQ(got, candidates[twin.below(candidates.size())]);
      else
        EXPECT_EQ(got, row.expect);
      EXPECT_EQ(rng.next(), twin.next()) << "draws differ, seed " << seed;
    }
  }
}

TEST(StealPolicy, StealClaimRule) {
  const std::size_t observed[] = {0, 1, 2, 3, 32, 33, 1000};
  const std::size_t half[] = {0, 1, 1, 2, 16, 16, 16};
  for (std::size_t i = 0; i < std::size(observed); ++i) {
    EXPECT_EQ(core::steal_claim(core::StealPolicy::One, observed[i]), 1u);
    EXPECT_EQ(core::steal_claim(core::StealPolicy::Half, observed[i]),
              half[i])
        << "observed " << observed[i];
  }
  EXPECT_EQ(core::kMaxStealBatch, 16u);
}

// Processor 1 sleeps through the first `wake` rounds; then each processor
// with an empty deque steals from the other. Records every steal's claim
// and the victim deque size it met.
class LateThief : public sched::ScheduleController {
 public:
  explicit LateThief(std::uint64_t wake) : wake_(wake) {}
  void on_start(const sched::Simulator&) override {}
  bool awake(const sched::Simulator& sim, core::ProcId p) override {
    return p == 0 || sim.round() >= wake_;
  }
  core::ProcId pick_victim(const sched::Simulator& sim,
                           core::ProcId thief) override {
    const core::ProcId other = 1 - thief;
    return sim.deque_empty(other) ? thief : other;
  }
  void on_steal(const sched::Simulator& sim, core::ProcId thief,
                core::ProcId victim, core::NodeId) override {
    const std::size_t claim = sim.deque_of(thief).size() + 1;
    claims.push_back(claim);
    observed.push_back(sim.deque_of(victim).size() + claim);
  }
  std::vector<std::size_t> claims;
  std::vector<std::size_t> observed;

 private:
  std::uint64_t wake_;
};

TEST(StealPolicy, SimulatorCapsAStealHalfClaimAt16) {
  // A parent-first main thread forks 64 one-node futures, pushing each, so
  // the thief's first steal meets a deque of 40 nodes.
  core::GraphBuilder b;
  const core::ThreadId main = b.main_thread();
  std::vector<core::ThreadId> futures;
  for (int i = 0; i < 64; ++i) futures.push_back(b.fork(main).future_thread);
  b.step(main);
  for (const core::ThreadId f : futures) b.touch(main, f);
  const core::Graph g = b.finish();

  for (const auto steal : {core::StealPolicy::One, core::StealPolicy::Half}) {
    sched::SimOptions opts;
    opts.procs = 2;
    opts.policy = ForkPolicy::ParentFirst;
    opts.steal_policy = steal;
    LateThief thief(40);
    const sched::SimResult r = sched::simulate(g, opts, &thief);
    ASSERT_FALSE(thief.claims.empty());
    EXPECT_EQ(thief.observed[0], 40u);
    EXPECT_EQ(thief.claims[0], steal == core::StealPolicy::Half ? 16u : 1u);
    std::uint64_t extras = 0;
    for (std::size_t i = 0; i < thief.claims.size(); ++i) {
      EXPECT_EQ(thief.claims[i], core::steal_claim(steal, thief.observed[i]));
      extras += thief.claims[i] - 1;
    }
    EXPECT_EQ(r.steals, thief.claims.size());
    EXPECT_EQ(r.batch_stolen_items, extras);
  }
}

TEST(RunSweep, UnknownFamilySurfacesAsCheckError) {
  exp::SweepSpec spec = small_spec();
  spec.graphs = {{"no-such-family", {}, {}}};
  EXPECT_THROW(exp::run_sweep(spec, 2), CheckError);
}

TEST(SweepOutput, CsvHasHeaderAndOneLinePerConfig) {
  const auto spec = small_spec();
  const auto result = exp::run_sweep(spec, 2);
  const std::string csv = exp::to_table(result).to_csv();
  ASSERT_EQ(csv.rfind(
                "backend,family,size,size2,nodes,span,touches,procs,policy,",
                0),
            0u);
  std::size_t lines = 0;
  for (const char ch : csv)
    if (ch == '\n') ++lines;
  EXPECT_EQ(lines, 1 + result.rows.size());
  EXPECT_NE(csv.find("future-first"), std::string::npos);
  EXPECT_NE(csv.find("parent-first"), std::string::npos);
}

TEST(SweepSpec, PerFamilySizeListsExpandAndShareGraphs) {
  exp::SweepSpec spec;
  spec.graphs = {{"fig4", {.size = 9}, {4, 6}}, {"fig6a", {.size = 5}, {}}};
  spec.procs = {1, 2};
  spec.policies = {ForkPolicy::FutureFirst};
  spec.touch_enables = {TouchEnable::TouchFirst};
  spec.cache_lines = {0, 4};

  // The axis list flattens to one single-size entry per (family, size).
  const auto axes = exp::flatten_graph_axes(spec);
  ASSERT_EQ(axes.size(), 3u);
  EXPECT_EQ(axes[0].family, "fig4");
  EXPECT_EQ(axes[0].params.size, 4u);
  EXPECT_EQ(axes[1].params.size, 6u);
  EXPECT_EQ(axes[2].family, "fig6a");
  EXPECT_EQ(axes[2].params.size, 5u);
  for (const auto& axis : axes) EXPECT_TRUE(axis.sizes.empty());

  // axes(3) × cache(2) × procs(2) configurations, graph-major order.
  const auto configs = exp::expand_spec(spec);
  ASSERT_EQ(configs.size(), 12u);
  EXPECT_EQ(configs[0].params.size, 4u);
  EXPECT_EQ(configs[4].params.size, 6u);
  EXPECT_EQ(configs[8].family, "fig6a");
  // Configurations differing only in P share one generated graph; each
  // (family, size, cache geometry) gets its own.
  EXPECT_EQ(configs[0].graph_index, configs[1].graph_index);
  EXPECT_EQ(configs[2].graph_index, 1u);  // fig4@4, C=4
  EXPECT_EQ(configs[4].graph_index, 2u);  // fig4@6, C=0
  EXPECT_EQ(configs[8].graph_index, 4u);  // fig6a@5, C=0

  // The generated graph list lines up with graph_index: every config's
  // graph was built from its own family and (per-family) size.
  const auto graphs = exp::generate_graphs(spec);
  ASSERT_EQ(graphs.size(), 6u);
  for (const auto& cfg : configs) {
    ASSERT_LT(cfg.graph_index, graphs.size());
    const auto direct = graphs::make_named(cfg.family, cfg.params);
    EXPECT_EQ(graphs[cfg.graph_index].graph.num_nodes(),
              direct.graph.num_nodes());
  }
}

TEST(RunSweep, ShardsPartitionConfigsRoundRobin) {
  const auto spec = small_spec();
  std::vector<char> seen(16, 0);
  for (const std::uint32_t shard : {0u, 1u, 2u}) {
    exp::SweepRunOptions opts;
    opts.threads = 2;
    opts.shard = {shard, 3};
    std::vector<std::size_t> indices;
    opts.on_row = [&](std::size_t i, const exp::SweepRow&) {
      indices.push_back(i);
    };
    const auto result = exp::run_sweep(spec, opts);
    for (const std::size_t i : indices) {
      EXPECT_EQ(i % 3, shard);
      EXPECT_FALSE(seen[i]) << "config " << i << " ran in two shards";
      seen[i] = 1;
    }
    // Non-owned rows keep their config but no replicates; to_table skips
    // them.
    EXPECT_EQ(exp::to_table(result).num_rows(), indices.size());
    for (std::size_t i = 0; i < result.rows.size(); ++i)
      EXPECT_EQ(result.rows[i].cell.deviations.count() > 0,
                i % 3 == shard);
  }
  for (const char s : seen) EXPECT_TRUE(s);  // the shards cover the grid
}

TEST(RunSweep, FailureCancelsRemainingJobs) {
  const auto spec = small_spec();  // 16 configurations
  exp::SweepRunOptions opts;
  opts.threads = 1;  // deterministic job order
  std::size_t rows_seen = 0;
  opts.on_row = [&](std::size_t, const exp::SweepRow&) {
    if (++rows_seen == 2) throw std::runtime_error("boom");
  };
  EXPECT_THROW(exp::run_sweep(spec, opts), std::runtime_error);
  // The cancel flag stops the worker loop: no further jobs are pulled
  // after the failure.
  EXPECT_EQ(rows_seen, 2u);
}

TEST(RunSweep, FailingConfigurationSurfacesAsCheckError) {
  auto spec = small_spec();
  spec.max_steps = 1;  // no schedule can finish in one round
  EXPECT_THROW(exp::run_sweep(spec, 4), CheckError);
}

TEST(SweepOutput, SingleReplicateStderrIsMissing) {
  auto spec = small_spec();
  spec.seeds = 1;
  const auto table = exp::to_table(exp::run_sweep(spec, 2));
  const auto& headers = table.headers();
  std::size_t stderr_col = headers.size();
  for (std::size_t c = 0; c < headers.size(); ++c)
    if (headers[c] == "stderr_deviations") stderr_col = c;
  ASSERT_LT(stderr_col, headers.size());
  for (const auto& row : table.rows()) EXPECT_EQ(row[stderr_col], "");
  // Missing cells render as a dash in the aligned table and null in JSON.
  EXPECT_NE(table.to_string().find("—"), std::string::npos);
  EXPECT_NE(table.to_json().find("\"stderr_deviations\": null"),
            std::string::npos);
}

namespace checkpointing {

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

TEST(Checkpoint, RunSweepTableMatchesToTable) {
  const auto spec = small_spec();
  const std::string direct = exp::to_table(exp::run_sweep(spec, 2)).to_csv();
  exp::SweepTableOptions opts;
  opts.threads = 2;
  EXPECT_EQ(exp::run_sweep_table(spec, opts).to_csv(), direct);
}

TEST(Checkpoint, ShardedRunsMergeByteIdentical) {
  const auto spec = small_spec();
  const std::string full = exp::to_table(exp::run_sweep(spec, 2)).to_csv();
  std::vector<exp::Checkpoint> shards;
  for (const std::uint32_t shard : {0u, 1u}) {
    exp::SweepTableOptions opts;
    opts.threads = 2;
    opts.shard = {shard, 2};
    opts.checkpoint_path =
        temp_path("shard" + std::to_string(shard) + ".ckpt");
    exp::run_sweep_table(spec, opts);
    shards.push_back(exp::load_checkpoint(opts.checkpoint_path));
  }
  EXPECT_EQ(exp::merge_checkpoints(shards).to_csv(), full);
  // An incomplete set of shards must fail loudly, not emit a short table.
  EXPECT_THROW(exp::merge_checkpoints({shards[1]}), CheckError);
}

TEST(Checkpoint, ResumeExecutesOnlyMissingConfigs) {
  const auto spec = small_spec();
  const std::string full = exp::to_table(exp::run_sweep(spec, 2)).to_csv();
  const std::string path = temp_path("resume.ckpt");

  // A "killed" run that only finished the even-indexed half of the grid.
  {
    exp::SweepTableOptions opts;
    opts.threads = 2;
    opts.shard = {0, 2};
    opts.checkpoint_path = path;
    exp::run_sweep_table(spec, opts);
  }
  // Resuming the full grid re-executes exactly the odd-indexed configs…
  std::vector<std::size_t> executed;
  exp::SweepTableOptions opts;
  opts.threads = 1;
  opts.checkpoint_path = path;
  opts.on_row = [&](std::size_t i, const exp::SweepRow&) {
    executed.push_back(i);
  };
  const auto table = exp::run_sweep_table(spec, opts);
  EXPECT_EQ(executed.size(), 8u);
  for (const std::size_t i : executed) EXPECT_EQ(i % 2, 1u);
  EXPECT_EQ(table.to_csv(), full);

  // …and a second resume finds everything done and runs nothing.
  executed.clear();
  const auto again = exp::run_sweep_table(spec, opts);
  EXPECT_TRUE(executed.empty());
  EXPECT_EQ(again.to_csv(), full);
}

TEST(Checkpoint, TornTailIsDroppedAndReExecuted) {
  const auto spec = small_spec();
  const std::string full = exp::to_table(exp::run_sweep(spec, 2)).to_csv();
  const std::string path = temp_path("torn.ckpt");
  {
    exp::SweepTableOptions opts;
    opts.threads = 2;
    opts.checkpoint_path = path;
    exp::run_sweep_table(spec, opts);
  }
  // Chop the file mid-record, as a kill -9 during an append would.
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(text.size(), 20u);
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << text.substr(0, text.size() - 20);
  }
  std::vector<std::size_t> executed;
  exp::SweepTableOptions opts;
  opts.threads = 1;
  opts.checkpoint_path = path;
  opts.on_row = [&](std::size_t i, const exp::SweepRow&) {
    executed.push_back(i);
  };
  const auto table = exp::run_sweep_table(spec, opts);
  EXPECT_GE(executed.size(), 1u);  // at least the torn config re-ran
  EXPECT_LE(executed.size(), 2u);
  EXPECT_EQ(table.to_csv(), full);
  // The rewritten checkpoint is whole again: merging it alone reproduces
  // the full table (it has every config).
  EXPECT_EQ(exp::merge_checkpoints({exp::load_checkpoint(path)}).to_csv(),
            full);
}

TEST(Checkpoint, MismatchedSpecIsRejected) {
  const auto spec = small_spec();
  const std::string path = temp_path("mismatch.ckpt");
  {
    exp::SweepTableOptions opts;
    opts.threads = 2;
    opts.checkpoint_path = path;
    exp::run_sweep_table(spec, opts);
  }
  auto other = spec;
  other.procs = {2, 4};  // same grid shape, different configurations
  exp::SweepTableOptions opts;
  opts.checkpoint_path = path;
  EXPECT_THROW(exp::run_sweep_table(other, opts), CheckError);

  // Parameters the table rows do not carry (seed base, stall probability,
  // graph seed) are still rejected, via the spec signature.
  auto reseeded = spec;
  reseeded.seed_base = 99;
  EXPECT_THROW(exp::run_sweep_table(reseeded, opts), CheckError);
  auto restalled = spec;
  restalled.stall_prob = 0.75;
  EXPECT_THROW(exp::run_sweep_table(restalled, opts), CheckError);
}

TEST(Checkpoint, MergeRejectsMissingTrailingConfigs) {
  const auto spec = small_spec();
  const std::string path = temp_path("trailing.ckpt");
  {
    exp::SweepTableOptions opts;
    opts.threads = 2;
    opts.checkpoint_path = path;
    exp::run_sweep_table(spec, opts);
  }
  // Drop the record of the highest config index. A contiguity check alone
  // would miss this truncation; the signature's grid size must catch it.
  auto ckpt = exp::load_checkpoint(path);
  exp::Checkpoint truncated{ckpt.signature,
                            support::Table(ckpt.table.headers())};
  const std::string last = std::to_string(ckpt.table.rows().size() - 1);
  for (const auto& cells : ckpt.table.rows())
    if (cells.front() != last) truncated.table.add_row(cells);
  EXPECT_THROW(exp::merge_checkpoints({truncated}), CheckError);
}

TEST(Checkpoint, TornInitialHeaderWriteIsRecoverable) {
  const auto spec = small_spec();
  const std::string full = exp::to_table(exp::run_sweep(spec, 2)).to_csv();
  const std::string path = temp_path("torn-header.ckpt");
  {
    // A run killed between the signature and header writes: one complete
    // line, one partial. Re-running must start fresh, not error out.
    std::ofstream out(path, std::ios::binary);
    out << "# wsf-sweep-checkpoint " << exp::spec_signature(spec)
        << "\nconfig_in";
  }
  exp::SweepTableOptions opts;
  opts.threads = 2;
  opts.checkpoint_path = path;
  EXPECT_EQ(exp::run_sweep_table(spec, opts).to_csv(), full);

  // But a file that is not a checkpoint at all must never be clobbered.
  const std::string foreign = temp_path("notes.txt");
  {
    std::ofstream out(foreign, std::ios::binary);
    out << "do not lose me";
  }
  opts.checkpoint_path = foreign;
  EXPECT_THROW(exp::run_sweep_table(spec, opts), CheckError);
  std::ifstream check(foreign);
  std::string contents;
  std::getline(check, contents);
  EXPECT_EQ(contents, "do not lose me");
}

TEST(Checkpoint, WallMsColumnSurvivesResumeAndMerge) {
  const auto spec = small_spec();
  const std::string path = temp_path("wall.ckpt");
  // A partial run (the even-indexed half of the grid)…
  {
    exp::SweepTableOptions opts;
    opts.threads = 2;
    opts.shard = {0, 2};
    opts.checkpoint_path = path;
    exp::run_sweep_table(spec, opts);
  }
  const auto before = exp::load_checkpoint(path);
  ASSERT_GE(before.table.headers().size(), 2u);
  EXPECT_EQ(before.table.headers()[0], "config_index");
  EXPECT_EQ(before.table.headers()[1], "wall_ms");
  std::map<std::string, std::string> wall_before;
  for (const auto& row : before.table.rows()) {
    // wall_ms is a non-negative integer millisecond count.
    EXPECT_FALSE(row[1].empty());
    EXPECT_EQ(row[1].find_first_not_of("0123456789"), std::string::npos);
    wall_before[row[0]] = row[1];
  }
  ASSERT_EQ(wall_before.size(), 8u);

  // …then a resume of the full grid: restored rows keep their recorded
  // wall time verbatim (the resume rewrite must not re-time them).
  {
    exp::SweepTableOptions opts;
    opts.threads = 2;
    opts.checkpoint_path = path;
    exp::run_sweep_table(spec, opts);
  }
  const auto after = exp::load_checkpoint(path);
  EXPECT_EQ(after.table.num_rows(), 16u);
  for (const auto& row : after.table.rows()) {
    const auto it = wall_before.find(row[0]);
    if (it != wall_before.end()) {
      EXPECT_EQ(row[1], it->second);
    }
  }

  // Merging strips the bookkeeping columns: the final table's bytes do
  // not depend on machine speed.
  const auto merged = exp::merge_checkpoints({after});
  EXPECT_EQ(merged.headers(), exp::sweep_table_headers());
  EXPECT_EQ(merged.to_csv(), exp::to_table(exp::run_sweep(spec, 2)).to_csv());
}

TEST(Checkpoint, ProgressHeartbeatReportsDoneTotalAndEta) {
  const auto spec = small_spec();  // 16 configurations
  std::ostringstream progress;
  exp::SweepTableOptions opts;
  opts.threads = 1;
  opts.progress = &progress;
  exp::run_sweep_table(spec, opts);

  std::istringstream lines(progress.str());
  std::string line;
  std::size_t count = 0;
  std::string last;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_NE(line.find("/16 configs"), std::string::npos) << line;
    EXPECT_NE(line.find("ETA"), std::string::npos) << line;
    last = line;
  }
  EXPECT_EQ(count, 16u);  // one heartbeat per finished configuration
  EXPECT_NE(last.find("16/16 configs (100.0%)"), std::string::npos) << last;

  // A resumed run reports the restored configurations up front and only
  // heartbeats the re-executed ones.
  const std::string path = temp_path("progress.ckpt");
  {
    exp::SweepTableOptions half;
    half.threads = 2;
    half.shard = {0, 2};
    half.checkpoint_path = path;
    exp::run_sweep_table(spec, half);
  }
  std::ostringstream resumed;
  exp::SweepTableOptions resume;
  resume.threads = 1;
  resume.checkpoint_path = path;
  resume.progress = &resumed;
  exp::run_sweep_table(spec, resume);
  EXPECT_EQ(resumed.str().rfind("wsf-sweep: resumed 8/16 configs", 0), 0u);
  EXPECT_NE(resumed.str().find("9/16 configs"), std::string::npos);
  EXPECT_NE(resumed.str().find("16/16 configs (100.0%)"),
            std::string::npos);
}

TEST(Checkpoint, SignatureCoversResultAffectingParameters) {
  const auto spec = small_spec();
  const std::string base = exp::spec_signature(spec);
  auto changed = spec;
  changed.seed_base = 99;
  EXPECT_NE(exp::spec_signature(changed), base);
  changed = spec;
  changed.stall_prob = 0.9;
  EXPECT_NE(exp::spec_signature(changed), base);
  changed = spec;
  changed.cache_policy = "fifo";
  EXPECT_NE(exp::spec_signature(changed), base);
  changed = spec;
  changed.graphs[0].params.seed = 5;  // graph generation seed
  EXPECT_NE(exp::spec_signature(changed), base);
  changed = spec;
  changed.graphs[0].sizes = {4};  // same size via the per-family list
  EXPECT_EQ(exp::spec_signature(changed), base);
}

}  // namespace checkpointing

TEST(SweepOutput, JsonIsAnArrayOfRowObjects) {
  const auto spec = small_spec();
  const auto result = exp::run_sweep(spec, 2);
  const std::string json = exp::to_table(result).to_json();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '[');
  std::size_t objects = 0;
  for (const char ch : json)
    if (ch == '{') ++objects;
  EXPECT_EQ(objects, result.rows.size());
  // Numeric cells are unquoted, string cells quoted.
  EXPECT_NE(json.find("\"family\": \"fig4\""), std::string::npos);
  EXPECT_NE(json.find("\"procs\": 1"), std::string::npos);
  EXPECT_EQ(json.find("\"procs\": \""), std::string::npos);
}

}  // namespace
}  // namespace wsf
