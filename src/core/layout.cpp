#include "core/layout.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace wsf::core {

const char* to_string(NodeOrderKind k) {
  switch (k) {
    case NodeOrderKind::Construction:
      return "construction";
    case NodeOrderKind::Dfs:
      return "dfs";
    case NodeOrderKind::Sequential:
      return "sequential";
    case NodeOrderKind::Random:
      return "random";
  }
  return "?";
}

NodeOrderKind node_order_from_string(const std::string& s) {
  if (s == "construction") return NodeOrderKind::Construction;
  if (s == "dfs") return NodeOrderKind::Dfs;
  if (s == "sequential" || s == "seq") return NodeOrderKind::Sequential;
  if (s == "random") return NodeOrderKind::Random;
  WSF_REQUIRE(false, "unknown node order '"
                         << s
                         << "' (construction | dfs | sequential | random)");
  return NodeOrderKind::Construction;
}

std::vector<NodeId> NodeOrder::to_original(
    std::span<const NodeId> relabeled) const {
  std::vector<NodeId> out;
  out.reserve(relabeled.size());
  for (const NodeId v : relabeled) {
    WSF_REQUIRE(v < old_id_of.size(), "node " << v << " outside the order");
    out.push_back(old_id_of[v]);
  }
  return out;
}

namespace {

NodeOrder finish_order(const Graph& g, NodeOrderKind kind,
                       std::vector<NodeId> new_id_of) {
  NodeOrder order;
  order.kind = kind;
  order.new_id_of = std::move(new_id_of);
  order.old_id_of.assign(g.num_nodes(), kInvalidNode);
  for (NodeId v = 0; v < static_cast<NodeId>(g.num_nodes()); ++v) {
    const NodeId nv = order.new_id_of[v];
    WSF_CHECK(nv < g.num_nodes() && order.old_id_of[nv] == kInvalidNode,
              "node order is not a permutation at node " << v);
    order.old_id_of[nv] = v;
  }
  WSF_CHECK(order.new_id_of[g.root()] == 0,
            "node order must keep the root at id 0");
  return order;
}

}  // namespace

NodeOrder construction_order(const Graph& g) {
  std::vector<NodeId> ids(g.num_nodes());
  for (NodeId v = 0; v < static_cast<NodeId>(ids.size()); ++v) ids[v] = v;
  return finish_order(g, NodeOrderKind::Construction, std::move(ids));
}

NodeOrder dfs_order(const Graph& g) {
  const std::size_t n = g.num_nodes();
  std::vector<NodeId> new_id_of(n, kInvalidNode);
  std::vector<NodeId> stack{g.root()};
  NodeId next = 0;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    if (new_id_of[v] != kInvalidNode) continue;
    new_id_of[v] = next++;
    // Push in reverse so the first successor's subtree is numbered first
    // (preorder).
    const std::span<const HalfEdge> out = g.successors(v);
    for (auto it = out.rbegin(); it != out.rend(); ++it)
      stack.push_back(it->node);
  }
  WSF_CHECK(static_cast<std::size_t>(next) == n,
            "DFS reached " << next << " of " << n << " nodes");
  return finish_order(g, NodeOrderKind::Dfs, std::move(new_id_of));
}

NodeOrder random_order(const Graph& g, std::uint64_t seed) {
  const std::size_t n = g.num_nodes();
  std::vector<NodeId> old_of_new(n);
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) old_of_new[v] = v;
  // Fisher–Yates over ids 1..n-1: the root keeps id 0 by convention.
  support::Xoshiro256 rng(seed);
  for (std::size_t i = n; i > 2; --i) {
    const std::size_t j = 1 + static_cast<std::size_t>(rng.below(i - 1));
    std::swap(old_of_new[i - 1], old_of_new[j]);
  }
  std::vector<NodeId> new_id_of(n, kInvalidNode);
  for (NodeId nv = 0; nv < static_cast<NodeId>(n); ++nv)
    new_id_of[old_of_new[nv]] = nv;
  return finish_order(g, NodeOrderKind::Random, std::move(new_id_of));
}

NodeOrder order_from_sequence(const Graph& g, NodeOrderKind kind,
                              std::span<const NodeId> sequence) {
  const std::size_t n = g.num_nodes();
  WSF_REQUIRE(sequence.size() == n,
              "order sequence covers " << sequence.size() << " of " << n
                                       << " nodes");
  std::vector<NodeId> new_id_of(n, kInvalidNode);
  for (std::size_t k = 0; k < n; ++k) {
    const NodeId v = sequence[k];
    WSF_REQUIRE(v < n && new_id_of[v] == kInvalidNode,
                "order sequence repeats or skips node " << v);
    new_id_of[v] = static_cast<NodeId>(k);
  }
  return finish_order(g, kind, std::move(new_id_of));
}

Graph relabeled_graph(const Graph& g, const std::vector<NodeId>& new_id_of) {
  const std::size_t n = g.num_nodes();
  WSF_REQUIRE(new_id_of.size() == n,
              "permutation covers " << new_id_of.size() << " of " << n
                                    << " nodes");
  WSF_REQUIRE(new_id_of[g.root()] == 0,
              "relabeling must keep the root at id 0");
  const auto map = [&](NodeId v) {
    return v == kInvalidNode ? kInvalidNode : new_id_of[v];
  };
  Graph out;
  out.thread_of_.resize(n);
  out.block_of_.resize(n);
  out.slots_.resize(n);
  std::vector<char> taken(n, 0);
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    const NodeId nv = new_id_of[v];
    WSF_REQUIRE(nv < n && !taken[nv],
                "permutation target " << nv << " out of range or repeated");
    taken[nv] = 1;
    out.thread_of_[nv] = g.thread_of(v);
    out.block_of_[nv] = g.block_of(v);
    // Edge slots keep their order; the final node's super-final
    // predecessors are not slots (finalize appends them again).
    Graph::Slots& s = out.slots_[nv];
    for (const HalfEdge& e : g.successors(v))
      s.out[s.out_count++] = HalfEdge{map(e.node), e.kind};
    std::span<const HalfEdge> in = g.predecessors(v);
    if (v == g.final_node())
      in = in.first(in.size() - g.super_final_preds_.size());
    for (const HalfEdge& e : in)
      s.in[s.in_count++] = HalfEdge{map(e.node), e.kind};
  }
  out.threads_ = g.threads_;
  for (ThreadInfo& ti : out.threads_) {
    ti.first_node = map(ti.first_node);
    ti.last_node = map(ti.last_node);
    ti.fork_node = map(ti.fork_node);
  }
  // The relabeled graph's construction order is its id order, so its
  // super-final predecessors are listed in id order.
  for (const NodeId v : g.super_final_preds_)
    out.super_final_preds_.push_back(map(v));
  std::sort(out.super_final_preds_.begin(), out.super_final_preds_.end());
  out.final_ = map(g.final_);
  for (const auto& [role, v] : g.role_to_node_) {
    out.role_to_node_[role] = map(v);
    out.node_to_role_[map(v)] = role;
  }
  out.finalize();
  return out;
}

}  // namespace wsf::core
