// wsf-sweep — run a whole experiment grid (the paper's figure/theorem
// tables) in one command, concurrently, and emit an aligned table, CSV, or
// JSON. Every cell is reproducible: it is the mean over --seeds replicates
// of run_experiment() with seeds --seed-base, --seed-base+1, …, so any row
// can be re-derived with sim_explorer or a single-run harness.
//
// Sweeps are restartable and distributable: --checkpoint appends finished
// configurations to a CSV as they complete (a killed run resumes by
// re-executing only the missing ones), --shard k/n runs a deterministic
// 1-of-n slice of the grid on this machine, and --merge reassembles shard
// checkpoints into output byte-identical to a single-process run.
//
//   ./build/tools/wsf-sweep                                  # default grid
//   ./build/tools/wsf-sweep --smoke --format=csv --out=smoke.csv   # CI
//   ./build/tools/wsf-sweep --families=fig2:4:6:8,fig4 --procs=1,2,4,8
//       --policies=future-first,parent-first --cache-lines=0,16 --seeds=8
//   ./build/tools/wsf-sweep --shard=0/2 --checkpoint=shard0.ckpt ...
//   ./build/tools/wsf-sweep --merge=shard0.ckpt,shard1.ckpt --format=csv
//   ./build/tools/wsf-sweep --preset=thm8 [--smoke]   # a paper claim, checked
//   ./build/tools/wsf-sweep --list-presets
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/backend.hpp"
#include "exp/checkpoint.hpp"
#include "exp/presets.hpp"
#include "exp/sweep.hpp"
#include "graphs/registry.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

using namespace wsf;

namespace {

std::vector<std::string> split_on(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string item;
  for (const char ch : s) {
    if (ch == sep) {
      if (!item.empty()) out.push_back(item);
      item.clear();
    } else {
      item += ch;
    }
  }
  if (!item.empty()) out.push_back(item);
  return out;
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out = split_on(s, ',');
  WSF_REQUIRE(!out.empty(), "empty comma-separated list '" << s << "'");
  return out;
}

template <typename T>
T parse_number(const std::string& item) {
  WSF_REQUIRE(!item.empty() &&
                  item.find_first_not_of("0123456789") == std::string::npos,
              "expected a number, got '" << item << "'");
  unsigned long long v = 0;
  try {
    v = std::stoull(item);
  } catch (const std::out_of_range&) {
    WSF_REQUIRE(false, "number out of range: '" << item << "'");
  }
  if constexpr (std::numeric_limits<T>::max() <
                std::numeric_limits<unsigned long long>::max()) {
    WSF_REQUIRE(v <= std::numeric_limits<T>::max(),
                "number out of range: '" << item << "'");
  }
  return static_cast<T>(v);
}

template <typename T>
std::vector<T> split_numbers(const std::string& s) {
  std::vector<T> out;
  for (const std::string& item : split_list(s))
    out.push_back(parse_number<T>(item));
  return out;
}

/// One --families item: "name" (sizes from --size) or "name:s1:s2:…"
/// (a per-family size axis).
exp::GraphAxis parse_family(const std::string& item,
                            const graphs::RegistryParams& defaults) {
  const std::vector<std::string> parts = split_on(item, ':');
  WSF_REQUIRE(!parts.empty(), "empty family entry in --families");
  exp::GraphAxis axis{parts[0], defaults, {}};
  for (std::size_t i = 1; i < parts.size(); ++i)
    axis.sizes.push_back(parse_number<std::uint32_t>(parts[i]));
  return axis;
}

exp::SweepShard parse_shard(const std::string& s) {
  const std::vector<std::string> parts = split_on(s, '/');
  WSF_REQUIRE(parts.size() == 2,
              "--shard must be k/n (e.g. 0/2), got '" << s << "'");
  exp::SweepShard shard;
  shard.index = parse_number<std::uint32_t>(parts[0]);
  shard.count = parse_number<std::uint32_t>(parts[1]);
  WSF_REQUIRE(shard.count >= 1 && shard.index < shard.count,
              "--shard index must be in [0, count), got '" << s << "'");
  return shard;
}

std::string known_families() {
  std::string all;
  for (const auto& name : graphs::registry_names())
    all += (all.empty() ? "" : ", ") + name;
  return all;
}

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

std::string render(const support::Table& table, const std::string& format) {
  if (format == "csv") return table.to_csv();
  if (format == "json") return table.to_json();
  WSF_REQUIRE(format == "table",
              "unknown --format '" << format << "' (table | csv | json)");
  return table.to_string();
}

void print_presets() {
  for (const exp::Preset& p : exp::presets()) {
    std::printf("%s\n  %s\n", p.name.c_str(), p.title.c_str());
    for (const exp::PresetClaim& c : p.claims)
      std::printf("  claim: %s\n", exp::describe(c).c_str());
  }
}

/// Reports every claim of the preset on stderr; 3 when any fails.
int check_claims(const exp::Preset& preset, const support::Table& derived) {
  const std::vector<std::string> failures =
      exp::failed_claims(preset, derived);
  for (const std::string& failure : failures)
    std::fprintf(stderr, "wsf-sweep: claim FAILED: %s\n", failure.c_str());
  std::fprintf(stderr, "wsf-sweep: preset %s: %zu of %zu claims hold\n",
               preset.name.c_str(), preset.claims.size() - failures.size(),
               preset.claims.size());
  return failures.empty() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  support::ArgParser args(
      "wsf-sweep — run an experiment grid (graph family × P × fork policy × "
      "touch rule × cache geometry × seeds) concurrently and emit the "
      "aggregated deviation / additional-miss / steal measures");
  auto& backend = args.add_string(
      "backend", "sim",
      "execution engine: sim (deterministic ABP simulator), runtime (the "
      "real fiber work-stealing scheduler), or both (the whole grid on "
      "each, told apart by the backend column); runtime configurations "
      "spawn their own P worker threads, so consider a small --threads "
      "value when sweeping large P on the runtime");
  auto& families = args.add_string(
      "families", "fig2,fig4,fig6a,forkjoin,pipeline",
      "comma-separated construction names (" + known_families() +
          "); append :s1:s2:… for a per-family size axis, e.g. fig2:4:6:8");
  auto& size = args.add_int("size", 6,
                            "primary size parameter for families without "
                            "their own :size list");
  auto& size2 = args.add_int("size2", 4, "secondary size parameter");
  auto& graph_seed = args.add_int("graph-seed", 1,
                                  "generation seed for random families");
  auto& procs = args.add_string("procs", "1,2,4,8",
                                "comma-separated processor counts");
  auto& policies = args.add_string("policies",
                                   "future-first,parent-first",
                                   "comma-separated fork policies");
  auto& touch = args.add_string("touch", "touch-first",
                                "comma-separated touch-enable rules "
                                "(touch-first, continuation-first)");
  auto& cache = args.add_string("cache-lines", "0,8,16",
                                "comma-separated cache lines per processor "
                                "(0 = no cache simulation)");
  auto& layout = args.add_string(
      "layout", "construction",
      "comma-separated node memory-layout orders (construction, dfs, "
      "sequential, random): each graph is relabeled into the order before "
      "anything runs, making node layout an experimental axis with its own "
      "identity column; applies to --smoke too");
  auto& steal = args.add_string(
      "steal", "one",
      "comma-separated steal-amount policies (one, half): how much a thief "
      "claims per successful steal, with its own identity column; applies "
      "to --smoke too");
  auto& victim = args.add_string(
      "victim", "uniform",
      "comma-separated victim-selection policies (uniform, last-victim, "
      "nearest); applies to --smoke too");
  auto& cache_policy = args.add_string("cache-policy", "lru",
                                       "lru | fifo | direct | assocW");
  auto& stall = args.add_double("stall", 0.2,
                                "stall probability per round, in [0, 1)");
  auto& seeds = args.add_int("seeds", 4, "schedule-seed replicates per cell");
  auto& seed_base = args.add_int("seed-base", 1, "first replicate seed");
  auto& threads = args.add_int("threads", 0,
                               "worker threads (0 = hardware concurrency)");
  auto& shard = args.add_string("shard", "0/1",
                                "run only slice k of n of the grid (k/n); "
                                "configs are assigned round-robin, so shard "
                                "CSVs merge back into the single-run result");
  auto& checkpoint = args.add_string(
      "checkpoint", "",
      "append finished configurations to this CSV and resume from it: a "
      "killed run re-executes only the missing configs");
  auto& merge = args.add_string(
      "merge", "",
      "comma-separated shard checkpoint files to merge into one result "
      "(runs nothing and ignores the grid flags; output is byte-identical "
      "to an unsharded run)");
  auto& format = args.add_string("format", "table", "table | csv | json");
  auto& out = args.add_string("out", "",
                              "write the rendered output to this file "
                              "instead of stdout");
  auto& progress = args.add_bool(
      "progress", false,
      "print a done/total + ETA heartbeat line to stderr after each "
      "finished configuration");
  auto& smoke = args.add_bool(
      "smoke", false,
      "fast CI grid: tiny fig2/fig4 graphs, full P × policy × touch × cache "
      "axes, 2 seeds (overrides the grid flags); with --preset, the "
      "preset's smoke-sized grid");
  auto& preset = args.add_string(
      "preset", "",
      "run a named paper claim (see --list-presets): its grid replaces "
      "every grid flag, the output gains the claim's derived columns, and "
      "the exit status is 3 when a claim fails; with --merge, derives and "
      "checks the merged shards");
  auto& list_presets = args.add_bool(
      "list-presets", false, "print every preset with its claims and exit");
  // Flag parsing must not escape main: an uncaught CheckError (e.g.
  // --threads=abc) would terminate with SIGABRT and no usable diagnostic.
  try {
    if (!args.parse(argc, argv)) return 0;
  } catch (const CheckError& e) {
    std::fprintf(stderr, "wsf-sweep: %s\n", e.what());
    return 2;
  }

  try {
    if (list_presets.value) {
      print_presets();
      return 0;
    }
    const exp::Preset* chosen =
        preset.value.empty() ? nullptr : &exp::find_preset(preset.value);
    if (!merge.value.empty()) {
      // Merge mode reads finished checkpoints; flags describing a run
      // would be silently meaningless, so reject the conflicting ones.
      WSF_REQUIRE(checkpoint.value.empty(),
                  "--merge and --checkpoint cannot be combined (merge "
                  "reads shard checkpoints and runs nothing)");
      WSF_REQUIRE(shard.value == "0/1",
                  "--merge and --shard cannot be combined");
      std::vector<exp::Checkpoint> shards;
      for (const std::string& path : split_list(merge.value))
        shards.push_back(exp::load_checkpoint(path));
      const support::Table merged = exp::merge_checkpoints(shards);
      const support::Table shown = chosen ? chosen->derive(merged) : merged;
      write_rendered(render(shown, format.value), out.value);
      std::fprintf(stderr, "wsf-sweep: merged %zu shard checkpoints, %zu "
                           "configurations%s%s\n",
                   shards.size(), merged.num_rows(),
                   out.value.empty() ? "" : " -> ", out.value.c_str());
      return chosen ? check_claims(*chosen, shown) : 0;
    }

    exp::SweepSpec spec;
    graphs::RegistryParams params;
    params.size = static_cast<std::uint32_t>(size.value);
    params.size2 = static_cast<std::uint32_t>(size2.value);
    params.seed = static_cast<std::uint64_t>(graph_seed.value);
    if (smoke.value) {
      spec = exp::smoke_spec();
    } else {
      for (const std::string& family : split_list(families.value))
        spec.graphs.push_back(parse_family(family, params));
      spec.procs = split_numbers<std::uint32_t>(procs.value);
      spec.policies.clear();
      for (const std::string& p : split_list(policies.value))
        spec.policies.push_back(core::fork_policy_from_string(p));
      spec.touch_enables.clear();
      for (const std::string& t : split_list(touch.value))
        spec.touch_enables.push_back(sched::touch_enable_from_string(t));
      spec.cache_lines = split_numbers<std::size_t>(cache.value);
      spec.seeds = static_cast<std::uint64_t>(seeds.value);
    }
    // Like --backend, --layout applies on top of --smoke so CI can run the
    // smoke grid under every layout order.
    spec.layouts.clear();
    for (const std::string& l : split_list(layout.value))
      spec.layouts.push_back(core::node_order_from_string(l));
    // The steal axes apply on top of --smoke too, mirroring --layout.
    spec.steal_policies.clear();
    for (const std::string& s : split_list(steal.value))
      spec.steal_policies.push_back(core::steal_policy_from_string(s));
    spec.victim_policies.clear();
    for (const std::string& v : split_list(victim.value))
      spec.victim_policies.push_back(core::victim_policy_from_string(v));
    spec.cache_policy = cache_policy.value;
    spec.stall_prob = stall.value;
    spec.seed_base = static_cast<std::uint64_t>(seed_base.value);
    // --backend applies to --smoke too: the CI runtime job runs the same
    // smoke grid on the real scheduler.
    if (backend.value == "both") {
      spec.backends = {exp::BackendKind::Sim, exp::BackendKind::Runtime};
    } else {
      WSF_REQUIRE(backend.value == "sim" || backend.value == "simulator" ||
                      backend.value == "runtime" || backend.value == "rt",
                  "unknown --backend '" << backend.value
                                        << "' (sim | runtime | both)");
      spec.backends = {exp::backend_from_string(backend.value)};
    }
    // A preset fixes its whole grid, overriding the flags above: its
    // claims are stated for exactly that grid.
    if (chosen) spec = smoke.value ? chosen->smoke : chosen->full;

    exp::SweepTableOptions run_opts;
    run_opts.threads = static_cast<unsigned>(threads.value);
    run_opts.shard = parse_shard(shard.value);
    run_opts.checkpoint_path = checkpoint.value;
    if (progress.value) run_opts.progress = &std::cerr;

    const auto t0 = std::chrono::steady_clock::now();
    const support::Table table = exp::run_sweep_table(spec, run_opts);
    const auto elapsed_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();

    // A shard holds part of the grid, so a preset's claims are derived
    // and checked only on the whole grid (or after --merge).
    const bool whole = run_opts.shard.count == 1;
    const support::Table shown =
        chosen && whole ? chosen->derive(table) : table;
    write_rendered(render(shown, format.value), out.value);
    std::fprintf(
        stderr,
        "wsf-sweep: %zu configurations (shard %s) x %llu seeds in %lld "
        "ms%s%s\n",
        table.num_rows(), shard.value.c_str(),
        static_cast<unsigned long long>(spec.seeds),
        static_cast<long long>(elapsed_ms), out.value.empty() ? "" : " -> ",
        out.value.c_str());
    if (chosen && whole) return check_claims(*chosen, shown);
  } catch (const CheckError& e) {
    std::fprintf(stderr, "wsf-sweep: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wsf-sweep: %s\n", e.what());
    return 1;
  }
  return 0;
}
