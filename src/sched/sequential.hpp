// Sequential (single-processor) execution of a computation DAG.
//
// The paper's baseline is the one-processor execution of the parsimonious
// work-stealing scheduler: a single deque, no steals. This file implements
// that executor directly (stack discipline, no processor machinery); the
// work-stealing simulator run at P=1 must produce exactly the same order,
// which tests/test_simulator.cpp verifies as a cross-check.
#pragma once

#include <cstdint>
#include <vector>

#include "core/graph.hpp"
#include "core/layout.hpp"
#include "sched/options.hpp"

namespace wsf::sched {

struct SeqResult {
  /// All nodes in execution order.
  std::vector<core::NodeId> order;
  /// position[v] = index of v in `order`.
  std::vector<std::uint32_t> position;
  /// Total cache misses (0 if cache simulation disabled).
  std::uint64_t misses = 0;
};

/// Executes the whole DAG on one processor under the given fork policy and
/// touch-enable rule, optionally simulating a cache of opts.cache_lines
/// lines. Only `policy`, `touch_enable`, `cache_lines` and `cache_policy`
/// of the options are consulted.
SeqResult run_sequential(const core::Graph& g, const SimOptions& opts);

/// Builds the NodeOrder of the given kind for g. The `sequential` order is
/// the execution order of the 1-processor baseline under the DEFAULT
/// options (future-first, touch-first) regardless of what policy an
/// experiment later sweeps — one canonical "as a sequential run walks
/// memory" layout per graph. `seed` is consulted only by `random`.
core::NodeOrder make_node_order(const core::Graph& g,
                                core::NodeOrderKind kind,
                                std::uint64_t seed = 1);

}  // namespace wsf::sched
