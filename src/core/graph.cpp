#include "core/graph.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/traversal.hpp"
#include "support/check.hpp"

namespace wsf::core {

const char* to_string(EdgeKind k) {
  switch (k) {
    case EdgeKind::Continuation:
      return "continuation";
    case EdgeKind::Future:
      return "future";
    case EdgeKind::Touch:
      return "touch";
  }
  return "?";
}

void Graph::set_role(NodeId id, const std::string& role) {
  WSF_REQUIRE(id < num_nodes(), "role on unknown node " << id);
  WSF_REQUIRE(!role_to_node_.count(role), "duplicate role '" << role << "'");
  role_to_node_[role] = id;
  node_to_role_[id] = role;
}

NodeId Graph::node_by_role(const std::string& role) const {
  auto it = role_to_node_.find(role);
  return it == role_to_node_.end() ? kInvalidNode : it->second;
}

const std::string& Graph::role_of(NodeId id) const {
  static const std::string kEmpty;
  auto it = node_to_role_.find(id);
  return it == node_to_role_.end() ? kEmpty : it->second;
}

NodeId Graph::add_node(ThreadId thread, BlockId block) {
  WSF_CHECK(num_nodes() < kInvalidNode, "graph too large");
  thread_of_.push_back(thread);
  block_of_.push_back(block);
  slots_.emplace_back();
  return static_cast<NodeId>(num_nodes() - 1);
}

void Graph::add_edge(NodeId from, NodeId to, EdgeKind kind) {
  Slots& f = slots_[from];
  Slots& t = slots_[to];
  WSF_CHECK(f.out_count < 2,
            "node " << from << " already has two out-edges");
  WSF_CHECK(t.in_count < 2, "node " << to << " already has two in-edges");
  f.out[f.out_count++] = HalfEdge{to, kind};
  t.in[t.in_count++] = HalfEdge{from, kind};
}

void Graph::add_super_final_edge(NodeId from) {
  WSF_CHECK(final_ != kInvalidNode, "finalize the graph before super edges");
  Slots& f = slots_[from];
  WSF_CHECK(f.out_count < 2,
            "node " << from << " already has two out-edges");
  f.out[f.out_count++] = HalfEdge{final_, EdgeKind::Touch};
  super_final_preds_.push_back(from);
}

void Graph::finalize() {
  const std::size_t n = slots_.size();
  thread_of_.shrink_to_fit();
  block_of_.shrink_to_fit();
  flags_.assign(n, 0);
  left_child_.assign(n, kInvalidNode);
  right_child_.assign(n, kInvalidNode);
  future_parent_.assign(n, kInvalidNode);
  corr_fork_.assign(n, kInvalidNode);

  // The final node has at most two in-slots; its super-final predecessors
  // follow them in its predecessor list, so in_degree(v) is always
  // predecessors(v).size().
  succ_off_.assign(n + 1, 0);
  pred_off_.assign(n + 1, 0);
  const auto extra = static_cast<std::uint32_t>(super_final_preds_.size());
  for (std::size_t v = 0; v < n; ++v) {
    succ_off_[v + 1] = succ_off_[v] + slots_[v].out_count;
    pred_off_[v + 1] =
        pred_off_[v] + slots_[v].in_count + (v == final_ ? extra : 0);
  }
  succ_.resize(succ_off_[n]);
  pred_.resize(pred_off_[n]);
  for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
    const Slots& s = slots_[v];
    std::copy_n(s.out.begin(), s.out_count, succ_.begin() + succ_off_[v]);
    std::copy_n(s.in.begin(), s.in_count, pred_.begin() + pred_off_[v]);

    // Kind flags and relations from the slots; super-final edges are not
    // in-slots, so they never make the final node a touch.
    bool future_out = false, cont_out = false;
    for (const HalfEdge& e : successors(v)) {
      future_out |= e.kind == EdgeKind::Future;
      cont_out |= e.kind == EdgeKind::Continuation;
      if (e.kind == EdgeKind::Touch) flags_[v] |= kFutureParent;
    }
    if (s.out_count == 2 && future_out && cont_out) {
      flags_[v] |= kFork;
      for (const HalfEdge& e : successors(v)) {
        if (e.kind == EdgeKind::Future)
          left_child_[v] = e.node;
        else
          right_child_[v] = e.node;
      }
    }
    for (std::uint8_t i = 0; i < s.in_count; ++i) {
      if (s.in[i].kind != EdgeKind::Touch) continue;
      flags_[v] |= kTouch;
      future_parent_[v] = s.in[i].node;
      corr_fork_[v] = threads_[thread_of_[s.in[i].node]].fork_node;
    }
    if (is_fork(v)) fork_nodes_.push_back(v);
    if (is_touch(v)) touch_nodes_.push_back(v);
  }
  if (has_super_final()) {
    std::size_t k = pred_off_[final_] + slots_[final_].in_count;
    for (const NodeId p : super_final_preds_)
      pred_[k++] = HalfEdge{p, EdgeKind::Touch};
  }
  std::vector<Slots>().swap(slots_);

  // Touches of each thread: a counting sort of touch_nodes_ by future
  // thread, keeping id order within each thread.
  thread_touch_off_.assign(threads_.size() + 1, 0);
  for (const NodeId touch : touch_nodes_)
    ++thread_touch_off_[future_thread_of(touch) + 1];
  for (std::size_t t = 1; t < thread_touch_off_.size(); ++t)
    thread_touch_off_[t] += thread_touch_off_[t - 1];
  thread_touches_.assign(touch_nodes_.size(), kInvalidNode);
  std::vector<std::uint32_t> cursor(thread_touch_off_.begin(),
                                    thread_touch_off_.end() - 1);
  for (const NodeId touch : touch_nodes_)
    thread_touches_[cursor[future_thread_of(touch)]++] = touch;

  validate();
}

void Graph::validate() const {
  const std::size_t n = num_nodes();
  WSF_CHECK(n != 0, "empty graph");
  WSF_CHECK(final_ != kInvalidNode, "graph was never finalized");

  // Degree conventions.
  for (NodeId id = 0; id < static_cast<NodeId>(n); ++id) {
    const std::size_t in = in_degree(id);
    const std::span<const HalfEdge> out = successors(id);
    if (id == root()) {
      WSF_CHECK(in == 0, "root must have in-degree 0");
    } else {
      WSF_CHECK(in >= 1 && (in <= 2 || id == final_),
                "node " << id << " has in-degree " << in);
    }
    if (id == final_) {
      WSF_CHECK(out.empty(), "final node must have out-degree 0");
    } else {
      WSF_CHECK(out.size() >= 1 && out.size() <= 2,
                "node " << id << " has out-degree " << out.size());
    }
    // No node mixes two out-edges of the same kind, and the only legal
    // out-degree-2 combinations are fork (continuation+future) and future
    // parent (continuation+touch).
    if (out.size() == 2) {
      // Two touch out-edges are legal only when one of them is a
      // super-final edge (Definition 13: a regular touch plus the super
      // final node).
      if (out[0].kind == out[1].kind) {
        WSF_CHECK(out[0].kind == EdgeKind::Touch &&
                      (out[0].node == final_ || out[1].node == final_) &&
                      has_super_final(),
                  "node " << id << " has two out-edges of the same kind");
      } else {
        WSF_CHECK(out[0].kind == EdgeKind::Continuation ||
                      out[1].kind == EdgeKind::Continuation,
                  "node " << id << " has an illegal out-edge combination");
      }
    }
    // Touches have exactly one continuation and one touch in-edge.
    if (is_touch(id) && id != final_) {
      const std::span<const HalfEdge> preds = predecessors(id);
      WSF_CHECK(preds.size() == 2,
                "touch " << id << " must have in-degree 2");
      const bool ok = (preds[0].kind == EdgeKind::Touch &&
                       preds[1].kind == EdgeKind::Continuation) ||
                      (preds[1].kind == EdgeKind::Touch &&
                       preds[0].kind == EdgeKind::Continuation);
      WSF_CHECK(ok, "touch " << id
                             << " needs one continuation and one touch edge");
    }
  }

  // Fork children: in-degree 1 and not touches (paper convention).
  for (const NodeId fork : fork_nodes_) {
    const NodeId l = fork_left_child(fork);
    const NodeId r = fork_right_child(fork);
    WSF_CHECK(in_degree(l) == 1 && !is_touch(l),
              "left child of fork " << fork << " violates the convention");
    WSF_CHECK(in_degree(r) == 1 && !is_touch(r),
              "right child of fork " << fork << " violates the convention");
  }

  // Thread structure: every non-main thread starts at a future edge and ends
  // with a single outgoing touch edge.
  for (ThreadId t = 0; t < static_cast<ThreadId>(threads_.size()); ++t) {
    const ThreadInfo& ti = threads_[t];
    WSF_CHECK(ti.first_node != kInvalidNode, "thread " << t << " is empty");
    if (t == 0) {
      WSF_CHECK(ti.first_node == root(), "main thread must start at root");
      WSF_CHECK(ti.last_node == final_, "main thread must end at final node");
    } else {
      const std::span<const HalfEdge> first = predecessors(ti.first_node);
      WSF_CHECK(first.size() == 1 && first[0].kind == EdgeKind::Future,
                "thread " << t << " must start with a future edge");
      const std::span<const HalfEdge> last = successors(ti.last_node);
      WSF_CHECK(!last.empty(), "thread " << t << " has a dangling tail");
      for (const HalfEdge& e : last)
        WSF_CHECK(e.kind == EdgeKind::Touch,
                  "thread " << t
                            << "'s last node must carry only touch edges");
    }
  }

  // Acyclicity + full reachability: the topological order covers all nodes
  // exactly when the in-degree bookkeeping is consistent and there is no
  // cycle; every node must reach the final node (unique sink).
  const std::vector<NodeId> topo = topological_order(*this);
  WSF_CHECK(topo.size() == n,
            "graph has a cycle or disconnected bookkeeping: topo covers "
                << topo.size() << " of " << n << " nodes");
  std::vector<char> reaches_final(n, 0);
  reaches_final[final_] = 1;
  for (auto it = topo.rbegin(); it != topo.rend(); ++it)
    for (const HalfEdge& e : successors(*it))
      if (reaches_final[e.node]) reaches_final[*it] = 1;
  for (NodeId id = 0; id < static_cast<NodeId>(n); ++id)
    WSF_CHECK(reaches_final[id],
              "node " << id << " cannot reach the final node");
}

}  // namespace wsf::core
