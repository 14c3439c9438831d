#include "sched/controller.hpp"

#include "sched/simulator.hpp"
#include "support/check.hpp"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace wsf::sched {

void ScheduleController::on_execute(const Simulator&, core::ProcId,
                                    core::NodeId) {}
void ScheduleController::on_steal(const Simulator&, core::ProcId,
                                  core::ProcId, core::NodeId) {}

RandomController::RandomController(std::uint64_t seed, double stall_prob,
                                   bool steal_nonempty_only,
                                   core::VictimPolicy victim_policy)
    : rng_(seed),
      stall_prob_(stall_prob),
      steal_nonempty_only_(steal_nonempty_only),
      victim_policy_(victim_policy) {
  // At 1 no processor ever acts, so a run could only end at the round
  // budget; a negative value would silently act as 0.
  WSF_REQUIRE(stall_prob >= 0.0 && stall_prob < 1.0,
              "stall probability " << stall_prob << " is outside [0, 1)");
}

void RandomController::on_start(const Simulator& sim) {
  // "None yet" is each thief's own index (a thief never steals from
  // itself), so LastVictim starts every run with a clean affinity slate.
  last_victim_.resize(sim.num_procs());
  for (core::ProcId p = 0; p < sim.num_procs(); ++p) last_victim_[p] = p;
}

bool RandomController::awake(const Simulator&, core::ProcId) {
  if (stall_prob_ <= 0.0) return true;
  return !rng_.chance(stall_prob_);
}

core::ProcId RandomController::pick_victim(const Simulator& sim,
                                           core::ProcId thief) {
  return core::pick_victim(
      victim_policy_, thief, sim.num_procs(), last_victim_[thief],
      steal_nonempty_only_, rng_,
      [&sim](core::ProcId v) { return sim.deque_empty(v); });
}

void RandomController::on_steal(const Simulator&, core::ProcId thief,
                                core::ProcId victim, core::NodeId) {
  if (victim_policy_ == core::VictimPolicy::LastVictim)
    last_victim_[thief] = victim;
}

ScriptController& ScriptController::sleep_after(const std::string& role,
                                                core::ProcId p) {
  pending_rules_.push_back({role, p});
  return *this;
}

ScriptController& ScriptController::sleep_now(core::ProcId p) {
  initially_asleep_.push_back(p);
  return *this;
}

ScriptController& ScriptController::prefer_victim(
    core::ProcId thief, std::vector<core::ProcId> victims) {
  victim_pref_[thief] = std::move(victims);
  return *this;
}

void ScriptController::on_start(const Simulator& sim) {
  asleep_.assign(sim.num_procs(), 0);
  for (core::ProcId p : initially_asleep_) {
    WSF_REQUIRE(p < sim.num_procs(), "sleep_now: bad processor " << p);
    asleep_[p] = 1;
  }
  triggers_.clear();
  for (const PendingRule& r : pending_rules_) {
    const core::NodeId v = sim.graph().node_by_role(r.role);
    WSF_REQUIRE(v != core::kInvalidNode,
                "schedule script references unknown role '" << r.role << "'");
    WSF_REQUIRE(r.proc < sim.num_procs(),
                "schedule script references bad processor " << r.proc);
    triggers_[v].push_back(r.proc);
  }
}

bool ScriptController::awake(const Simulator&, core::ProcId p) {
  return !asleep_[p];
}

core::ProcId ScriptController::pick_victim(const Simulator& sim,
                                           core::ProcId thief) {
  auto it = victim_pref_.find(thief);
  if (it != victim_pref_.end()) {
    for (core::ProcId v : it->second)
      if (v != thief && !sim.deque_empty(v)) return v;
  }
  for (core::ProcId v = 0; v < sim.num_procs(); ++v)
    if (v != thief && !sim.deque_empty(v)) return v;
  return thief;  // nothing to steal; skip this round
}

void ScriptController::on_execute(const Simulator&, core::ProcId,
                                  core::NodeId v) {
  auto it = triggers_.find(v);
  if (it == triggers_.end()) return;
  for (const core::ProcId proc : it->second) asleep_[proc] = 1;
}

}  // namespace wsf::sched
