#include "core/deviation.hpp"

#include "support/check.hpp"

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace wsf::core {

DeviationCounter::DeviationCounter(const Graph& g,
                                   const std::vector<NodeId>& seq_order)
    : g_(g) {
  const std::size_t n = g.num_nodes();
  WSF_REQUIRE(seq_order.size() == n,
              "sequential order must cover every node: " << seq_order.size()
                                                         << " vs " << n);
  // seq_pred[v] = node executed immediately before v sequentially.
  seq_pred_.assign(n, kInvalidNode);
  for (std::size_t i = 1; i < seq_order.size(); ++i)
    seq_pred_[seq_order[i]] = seq_order[i - 1];

  // Right children of forks, for the breakdown.
  is_fork_child_.assign(n, 0);
  for (NodeId fork : g.fork_nodes()) {
    is_fork_child_[g.fork_left_child(fork)] = 1;
    is_fork_child_[g.fork_right_child(fork)] = 1;
  }
}

const DeviationReport& DeviationCounter::count(
    const std::vector<std::vector<NodeId>>& proc_orders) {
  const std::size_t n = g_.num_nodes();
  DeviationReport& r = report_;
  r.deviations = 0;
  r.touch_deviations = 0;
  r.fork_child_deviations = 0;
  r.other_deviations = 0;
  r.is_deviation.assign(n, 0);
  std::size_t executed = 0;
  for (const auto& order : proc_orders) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      ++executed;
      const NodeId v = order[i];
      const NodeId actual_prev = i == 0 ? kInvalidNode : order[i - 1];
      const NodeId wanted_prev = seq_pred_[v];
      if (wanted_prev == kInvalidNode) continue;  // first node overall
      if (actual_prev == wanted_prev) continue;
      r.is_deviation[v] = 1;
      ++r.deviations;
      if (g_.is_touch(v))
        ++r.touch_deviations;
      else if (is_fork_child_[v])
        ++r.fork_child_deviations;
      else
        ++r.other_deviations;
    }
  }
  WSF_REQUIRE(executed == n, "parallel execution covered "
                                 << executed << " of " << n << " nodes");
  return r;
}

DeviationReport count_deviations(
    const Graph& g, const std::vector<NodeId>& seq_order,
    const std::vector<std::vector<NodeId>>& proc_orders) {
  DeviationCounter counter(g, seq_order);
  return counter.count(proc_orders);
}

std::vector<DeviationChain> deviation_chains(
    const Graph& g, const DeviationReport& report,
    const std::vector<NodeId>& stolen_nodes) {
  std::vector<DeviationChain> chains;
  chains.reserve(stolen_nodes.size());
  for (NodeId stolen : stolen_nodes) {
    DeviationChain chain;
    chain.stolen = stolen;
    // The stolen node is a fork's right child in parsimonious stealing
    // (only fork children enter deques); find its fork. The left child
    // case (parent-first pushes the future thread head) roots the chain at
    // the same fork.
    const std::span<const HalfEdge> preds = g.predecessors(stolen);
    NodeId fork = kInvalidNode;
    if (preds.size() == 1 && preds[0].kind != EdgeKind::Touch &&
        g.is_fork(preds[0].node))
      fork = preds[0].node;
    if (fork == kInvalidNode) {
      chains.push_back(std::move(chain));
      continue;
    }
    // Follow: fork → its future thread's touch; if that touch deviated and
    // lies inside another (forked) future thread, continue with that
    // thread's touch.
    ThreadId t = g.thread_of(g.fork_left_child(fork));
    std::size_t guard = 0;
    while (guard++ <= g.num_nodes()) {
      const auto touches = g.touches_of_thread(t);
      if (touches.size() != 1) break;  // chains are defined for single-touch
      const NodeId x = touches.front();
      if (!report.is_deviation[x]) break;
      chain.touches.push_back(x);
      const ThreadId next = g.thread_of(x);
      if (next == 0 || next == t) break;  // reached the main thread
      t = next;
    }
    chains.push_back(std::move(chain));
  }
  return chains;
}

}  // namespace wsf::core
