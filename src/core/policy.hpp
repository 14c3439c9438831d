// Fork scheduling policy (Section 3 / Section 5 of the paper).
//
// After executing a fork, a parsimonious work-stealing processor executes one
// child and pushes the other onto the bottom of its deque. The paper's second
// contribution is that for structured computations the *future thread first*
// choice gives provably good cache locality (Theorem 8) while *parent thread
// first* can be as bad as unstructured futures (Theorem 10).
#pragma once

#include <string>

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
  /// Claim up to half the victim's observed items in one operation
  /// (steal-half amortization: thieves visit the victim's top line once
  /// per batch instead of once per task).
  Half,
};

inline const char* to_string(StealPolicy p) {
  return p == StealPolicy::One ? "one" : "half";
}

StealPolicy steal_policy_from_string(const std::string& s);

/// How a thief picks its victim.
enum class VictimPolicy {
  /// Uniformly random among the other workers (the paper's model).
  Uniform,
  /// Retry the last worker a steal succeeded from before falling back to
  /// uniform choice (affinity: a recently productive victim likely still
  /// has work, and its lines may still be warm nearby).
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

}  // namespace wsf::core
