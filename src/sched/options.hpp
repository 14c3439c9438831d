// Configuration shared by the sequential executor and the work-stealing
// simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/policy.hpp"
#include "support/check.hpp"

namespace wsf::sched {

/// What a processor does when executing a node enables both the node's
/// continuation child and its touch child (possible only at *interior*
/// future parents, which occur in local-touch computations and in the main
/// thread). The paper's single-touch proofs never hit this case because a
/// single-touch future parent is its thread's last node.
enum class TouchEnable {
  /// Continue into the enabled touch and push the continuation — models
  /// futures runtimes that eagerly resume a waiting consumer when the value
  /// is produced. Default.
  TouchFirst,
  /// Continue the producer's own thread and push the enabled touch.
  ContinuationFirst,
};

inline const char* to_string(TouchEnable t) {
  return t == TouchEnable::TouchFirst ? "touch-first" : "continuation-first";
}

inline TouchEnable touch_enable_from_string(const std::string& s) {
  if (s == "touch-first" || s == "touch") return TouchEnable::TouchFirst;
  if (s == "continuation-first" || s == "continuation")
    return TouchEnable::ContinuationFirst;
  WSF_REQUIRE(false, "unknown touch-enable rule '"
                         << s << "' (touch-first | continuation-first)");
  return TouchEnable::TouchFirst;
}

struct SimOptions {
  /// Number of simulated processors P.
  std::uint32_t procs = 1;
  /// Child choice at forks (the paper's central policy knob).
  core::ForkPolicy policy = core::ForkPolicy::FutureFirst;
  TouchEnable touch_enable = TouchEnable::TouchFirst;

  /// Seed for the default random schedule controller.
  std::uint64_t seed = 1;
  /// With the default controller, probability that an awake processor stalls
  /// for a round — injects schedule diversity so steals (and therefore
  /// deviations) actually happen; the paper's bounds hold under any such
  /// adversarial delays. Must lie in [0, 1).
  double stall_prob = 0.0;
  /// Default controller only steals from victims with non-empty deques. In
  /// a real ABP scheduler failed attempts are still possible under races
  /// with the victim popping its own bottom, but this simulator is
  /// deterministic and round-sequential, so restricting to non-empty
  /// victims simply avoids pointless attempts; set to false for faithful
  /// uniform-victim ABP accounting, where attempts on empty deques count
  /// as failed_steals.
  bool steal_nonempty_only = true;

  /// How much a thief claims per successful steal: one node (the paper's
  /// parsimonious model) or up to half the victim's deque (the steal-half
  /// amortization). Extra claimed nodes land on the thief's own deque; the
  /// steal still costs one round.
  core::StealPolicy steal_policy = core::StealPolicy::One;
  /// How the default random controller picks victims: uniform random (the
  /// paper's model), last-victim affinity, or nearest-neighbor scan.
  core::VictimPolicy victim_policy = core::VictimPolicy::Uniform;

  /// Cache lines per processor (C); 0 disables cache simulation.
  std::size_t cache_lines = 0;
  /// Cache replacement policy ("lru", "fifo", "direct", "assocW").
  std::string cache_policy = "lru";

  /// When set (the default), SimResult records the full execution trace
  /// (proc_orders, global_order, executed_by, stolen_nodes). Counter-only
  /// runs — large sweeps that just need steals/steps/misses — clear it to
  /// skip all per-node trace allocation. Deviation counting needs traces,
  /// so run_experiment() forces it back on for its parallel run.
  bool record_trace = true;

  /// Safety valve against controller bugs: the simulator throws if the
  /// execution does not finish within this many rounds
  /// (0 = auto: (64 + 64·N)·P rounds).
  std::uint64_t max_steps = 0;
};

}  // namespace wsf::sched
