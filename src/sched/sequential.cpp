#include "sched/sequential.hpp"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.hpp"
#include "support/check.hpp"

namespace wsf::sched {

SeqResult run_sequential(const core::Graph& g, const SimOptions& opts) {
  const std::size_t n = g.num_nodes();
  SeqResult result;
  result.order.reserve(n);
  result.position.assign(n, 0);

  std::unique_ptr<cache::CacheModel> cache;
  if (opts.cache_lines > 0)
    cache = cache::make_cache(opts.cache_policy, opts.cache_lines);

  // pending[v] = predecessors not yet executed; a node is enabled when its
  // last predecessor executes.
  std::vector<std::uint32_t> pending(n);
  for (core::NodeId v = 0; v < static_cast<core::NodeId>(n); ++v)
    pending[v] = static_cast<std::uint32_t>(g.in_degree(v));

  std::vector<core::NodeId> deque;  // bottom = back (LIFO for the owner)
  core::NodeId current = g.root();

  while (true) {
    // ---- execute `current` ----
    const core::BlockId block = g.block_of(current);
    if (cache && block != core::kNoBlock) {
      if (cache->access(block)) ++result.misses;
    }
    result.position[current] = static_cast<std::uint32_t>(result.order.size());
    result.order.push_back(current);

    // ---- collect children enabled by this execution ----
    core::HalfEdge enabled[2];
    int enabled_count = 0;
    for (const core::HalfEdge& out : g.successors(current)) {
      WSF_DCHECK(pending[out.node] > 0);
      if (--pending[out.node] == 0) enabled[enabled_count++] = out;
    }

    // ---- choose the next node (parsimonious discipline) ----
    if (enabled_count == 2) {
      // Deterministic choice: forks follow the fork policy; future parents
      // follow the touch-enable rule. enabled[0]/[1] kinds are distinct
      // unless both are touch edges (super-final producer), where order is
      // immaterial (the final node runs last anyway).
      int take = 0;
      if (g.is_fork(current)) {
        const bool take_future =
            opts.policy == core::ForkPolicy::FutureFirst;
        take = (enabled[0].kind == core::EdgeKind::Future) == take_future
                   ? 0
                   : 1;
      } else {
        const bool take_touch = opts.touch_enable == TouchEnable::TouchFirst;
        take = (enabled[0].kind == core::EdgeKind::Touch) == take_touch ? 0
                                                                        : 1;
      }
      deque.push_back(enabled[1 - take].node);
      current = enabled[take].node;
      continue;
    }
    if (enabled_count == 1) {
      current = enabled[0].node;
      continue;
    }
    // Nothing enabled: pop the bottom of the deque.
    if (deque.empty()) break;
    current = deque.back();
    deque.pop_back();
  }

  WSF_CHECK(result.order.size() == n,
            "sequential execution finished after "
                << result.order.size() << " of " << n
                << " nodes — the DAG is not well formed");
  return result;
}

core::NodeOrder make_node_order(const core::Graph& g,
                                core::NodeOrderKind kind,
                                std::uint64_t seed) {
  switch (kind) {
    case core::NodeOrderKind::Construction:
      return core::construction_order(g);
    case core::NodeOrderKind::Dfs:
      return core::dfs_order(g);
    case core::NodeOrderKind::Random:
      return core::random_order(g, seed);
    case core::NodeOrderKind::Sequential: {
      // Canonical baseline walk: default SimOptions (future-first,
      // touch-first, no cache — cache settings cannot change the order).
      const SeqResult seq = run_sequential(g, SimOptions{});
      return core::order_from_sequence(g, core::NodeOrderKind::Sequential,
                                       seq.order);
    }
  }
  WSF_REQUIRE(false, "unknown node order kind");
  return core::construction_order(g);
}

}  // namespace wsf::sched
