#include "core/classify.hpp"

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/traversal.hpp"
#include "support/check.hpp"

namespace wsf::core {
namespace {

/// Touches of a thread, with super-final membership split out. A thread
/// "touches the super final node" when its last node carries a super-final
/// edge (Section 6.2).
struct ThreadTouches {
  std::vector<NodeId> regular;  // proper touch nodes
  bool touches_super_final = false;
};

ThreadTouches collect_touches(const Graph& g, ThreadId t) {
  ThreadTouches out;
  const auto touches = g.touches_of_thread(t);
  out.regular.assign(touches.begin(), touches.end());
  const NodeId last = g.thread_info(t).last_node;
  for (NodeId pred : g.super_final_preds()) {
    if (pred == last) out.touches_super_final = true;
  }
  // A regular touch edge may also target the final node (e.g. a fork-join
  // program whose final node joins a future). Those count as regular touches
  // and are already in `regular`.
  return out;
}

std::string describe(const Graph& g, NodeId n) {
  std::ostringstream os;
  os << "node " << n;
  const std::string& role = g.role_of(n);
  if (!role.empty()) os << " ('" << role << "')";
  return os.str();
}

}  // namespace

StructureReport classify(const Graph& g) {
  StructureReport r;
  r.has_super_final = g.has_super_final();
  r.structured = true;
  r.single_touch = true;
  r.local_touch = true;
  r.single_touch_super = true;
  r.local_touch_super = true;
  r.fork_join = true;

  auto violation = [&r](const std::string& what) {
    r.violations.push_back(what);
  };

  for (NodeId fork : g.fork_nodes()) {
    const NodeId left = g.fork_left_child(fork);
    const NodeId right = g.fork_right_child(fork);
    const ThreadId t = g.thread_of(left);
    const ThreadId parent_thread = g.thread_of(fork);
    const ThreadTouches touches = collect_touches(g, t);

    const std::vector<char> desc_of_fork = reachable_from(g, fork);
    const std::vector<char> desc_of_right = reachable_from(g, right);

    // --- Definition 1, condition (1): local parents of t's touches are
    // descendants of the fork.
    bool cond1 = true;
    for (NodeId x : touches.regular) {
      const NodeId lp = g.local_parent_of(x);
      if (!desc_of_fork[lp]) {
        cond1 = false;
        violation("Def1(1): local parent of touch " + describe(g, x) +
                  " is not a descendant of fork " + describe(g, fork));
      }
    }
    // --- Definition 1, condition (2): at least one touch of t descends from
    // the fork's right child.
    std::size_t touches_under_right = 0;
    for (NodeId x : touches.regular)
      if (desc_of_right[x]) ++touches_under_right;
    const bool cond2 = touches_under_right >= 1;
    if (!cond2)
      violation("Def1(2): no touch of the thread spawned at fork " +
                describe(g, fork) +
                " is a descendant of the fork's right child");
    if (!(cond1 && cond2)) r.structured = false;

    // --- Definition 2: exactly one touch, a descendant of the right child.
    const bool d2 = cond1 && touches.regular.size() == 1 &&
                    touches_under_right == 1 && !touches.touches_super_final;
    if (!d2) r.single_touch = false;

    // --- Definition 3: all touches in the parent thread, under right child.
    bool d3 = !touches.regular.empty() && !touches.touches_super_final;
    for (NodeId x : touches.regular) {
      if (g.thread_of(x) != parent_thread || !desc_of_right[x]) d3 = false;
    }
    if (!d3) r.local_touch = false;

    // --- Definition 13: one or two touches; the regular one (if any) under
    // the right child with a structured local parent; the other the super
    // final node.
    bool d13 = cond1;
    const std::size_t total =
        touches.regular.size() + (touches.touches_super_final ? 1 : 0);
    if (total < 1 || total > 2) d13 = false;
    if (touches.regular.size() > 1) d13 = false;
    for (NodeId x : touches.regular)
      if (!desc_of_right[x]) d13 = false;
    if (!d13) r.single_touch_super = false;

    // --- Definition 17: touched only by the super final node and by the
    // parent thread at descendants of the right child.
    bool d17 = total >= 1;
    for (NodeId x : touches.regular)
      if (g.thread_of(x) != parent_thread || !desc_of_right[x]) d17 = false;
    if (!d17) r.local_touch_super = false;
  }

  // --- Fork-join: walk each thread and require LIFO matching between the
  // forks it performs and the touches it executes.
  for (ThreadId t = 0; t < g.num_threads() && r.fork_join; ++t) {
    std::vector<ThreadId> open;  // this thread's not-yet-touched futures
    NodeId cur = g.thread_info(t).first_node;
    while (cur != kInvalidNode) {
      if (g.is_fork(cur)) {
        open.push_back(g.thread_of(g.fork_left_child(cur)));
      } else if (g.is_touch(cur)) {
        const ThreadId ft = g.future_thread_of(cur);
        if (open.empty() || open.back() != ft) {
          r.fork_join = false;
          violation("fork-join: touch " + describe(g, cur) +
                    " does not match the most recent open future");
          break;
        }
        open.pop_back();
      }
      // Advance along the continuation edge.
      NodeId next = kInvalidNode;
      for (const HalfEdge& out : g.successors(cur))
        if (out.kind == EdgeKind::Continuation) next = out.node;
      cur = next;
    }
    if (!open.empty()) {
      r.fork_join = false;
      violation("fork-join: thread " + std::to_string(t) +
                " leaves futures untouched");
    }
  }
  // Fork-join is a subset of single-touch + local-touch; guard against the
  // LIFO walk accepting graphs the stricter definitions reject.
  r.fork_join = r.fork_join && r.single_touch && r.local_touch;

  return r;
}

bool is_structured(const Graph& g) { return classify(g).structured; }
bool is_structured_single_touch(const Graph& g) {
  return classify(g).single_touch;
}
bool is_structured_local_touch(const Graph& g) {
  return classify(g).local_touch;
}

}  // namespace wsf::core
