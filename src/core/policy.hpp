// Fork scheduling policy (Section 3 / Section 5 of the paper).
//
// After executing a fork, a parsimonious work-stealing processor executes one
// child and pushes the other onto the bottom of its deque. The paper's second
// contribution is that for structured computations the *future thread first*
// choice gives provably good cache locality (Theorem 8) while *parent thread
// first* can be as bad as unstructured futures (Theorem 10).
//
// The steal policies are decided here once, for both engines: pick_victim
// chooses whom a thief probes and steal_claim how many items it takes. The
// simulator (sched::RandomController, Simulator::try_steal) and the runtime
// (runtime::Worker::find_work, steal_from) only carry the decisions out.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

#include "core/ids.hpp"
#include "support/rng.hpp"

namespace wsf::core {

enum class ForkPolicy {
  /// Execute the spawned future thread (the fork's left child); push the
  /// parent continuation. This is "work-first" in Cilk terminology and the
  /// policy the paper recommends.
  FutureFirst,
  /// Continue the parent thread (the fork's right child); push the future
  /// task. This is "help-first" and the policy Theorem 10 shows can be bad.
  ParentFirst,
};

inline const char* to_string(ForkPolicy p) {
  return p == ForkPolicy::FutureFirst ? "future-first" : "parent-first";
}

ForkPolicy fork_policy_from_string(const std::string& s);

/// How much a thief claims per successful steal operation.
enum class StealPolicy {
  /// Claim exactly one task from the victim's top (the classic ABP /
  /// parsimonious discipline the paper analyzes).
  One,
  /// Claim half the victim's observed items, rounded up and at most
  /// kMaxStealBatch, in one operation (steal-half amortization: thieves
  /// visit the victim's top line once per batch instead of once per task).
  Half,
};

inline const char* to_string(StealPolicy p) {
  return p == StealPolicy::One ? "one" : "half";
}

StealPolicy steal_policy_from_string(const std::string& s);

/// How a thief picks its victim (see pick_victim for the exact rules).
enum class VictimPolicy {
  /// Uniformly random among the other workers (the paper's model).
  Uniform,
  /// Retry the last worker a steal succeeded from while its deque is
  /// non-empty, else choose uniformly (affinity: a recently productive
  /// victim likely still has work, and its lines may still be warm nearby).
  LastVictim,
  /// Scan neighbors by index distance (id+1, id+2, … wrapping) and take
  /// the first non-empty deque — a stand-in for topology-aware locality.
  Nearest,
};

inline const char* to_string(VictimPolicy p) {
  switch (p) {
    case VictimPolicy::Uniform: return "uniform";
    case VictimPolicy::LastVictim: return "last-victim";
    case VictimPolicy::Nearest: return "nearest";
  }
  return "uniform";
}

VictimPolicy victim_policy_from_string(const std::string& s);

/// The most items one steal-half operation claims, so a single thief
/// cannot drain a long deque in one operation.
inline constexpr std::size_t kMaxStealBatch = 16;

/// How many items a thief claims from a victim deque it observed holding
/// `observed` items: 1 under steal-one; under steal-half, half of them
/// rounded up (a 1-item deque still yields it), at most kMaxStealBatch.
/// The simulator passes the exact size; the runtime passes a racy estimate
/// and stops its claims at the first lost race.
inline std::size_t steal_claim(StealPolicy policy, std::size_t observed) {
  if (policy == StealPolicy::One) return 1;
  return std::min((observed + 1) / 2, kMaxStealBatch);
}

/// The processor a thief probes this round, or `thief` itself to decline
/// the round (no steal attempt). `last` is the victim of the thief's last
/// successful steal, `thief` when there is none; `is_empty(v)` reports
/// whether v's deque is empty (exact in the simulator, an estimate in the
/// runtime). The rules, in order:
///   * procs <= 1: decline, drawing nothing;
///   * LastVictim: `last` while its deque is non-empty, else as Uniform;
///   * Nearest: the first non-empty deque at index distance 1, 2, …
///     (wrapping); decline when every other deque is empty. No draw;
///   * Uniform: one `rng.below` draw — over every other processor, or with
///     `nonempty_only` over those with a non-empty deque (declining when
///     there is none).
template <typename IsEmpty>
ProcId pick_victim(VictimPolicy policy, ProcId thief, std::uint32_t procs,
                   ProcId last, bool nonempty_only, support::Xoshiro256& rng,
                   const IsEmpty& is_empty) {
  if (procs <= 1) return thief;
  switch (policy) {
    case VictimPolicy::LastVictim:
      if (last != thief && !is_empty(last)) return last;
      break;
    case VictimPolicy::Nearest:
      for (std::uint32_t d = 1; d < procs; ++d) {
        const ProcId v = (thief + d) % procs;
        if (!is_empty(v)) return v;
      }
      return thief;
    case VictimPolicy::Uniform:
      break;
  }
  if (!nonempty_only) {
    // Faithful ABP: the victim's deque may be empty and the attempt fail.
    auto v = static_cast<ProcId>(rng.below(procs - 1));
    if (v >= thief) ++v;
    return v;
  }
  // Count the candidates, then walk to the drawn one: the same single draw
  // as indexing a list of them, without building it.
  std::uint32_t candidates = 0;
  for (ProcId q = 0; q < procs; ++q)
    if (q != thief && !is_empty(q)) ++candidates;
  if (candidates == 0) return thief;
  auto skip = rng.below(candidates);
  for (ProcId q = 0;; ++q)
    if (q != thief && !is_empty(q) && skip-- == 0) return q;
}

}  // namespace wsf::core
