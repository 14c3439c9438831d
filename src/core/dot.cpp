#include "core/dot.hpp"

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

namespace wsf::core {

std::string to_dot(const Graph& g, const DotOptions& opts) {
  std::ostringstream os;
  os << "digraph computation {\n"
     << "  rankdir=TB;\n"
     << "  node [shape=circle, fontsize=10, width=0.3];\n";
  const std::size_t limit = std::min(g.num_nodes(), opts.max_nodes);

  auto label = [&](NodeId id) {
    std::ostringstream l;
    const std::string& role = g.role_of(id);
    if (!role.empty())
      l << role;
    else
      l << id;
    if (opts.show_blocks && g.block_of(id) != kNoBlock)
      l << "\\nm" << g.block_of(id);
    return l.str();
  };

  if (opts.cluster_threads) {
    for (ThreadId t = 0; t < g.num_threads(); ++t) {
      os << "  subgraph cluster_thread" << t << " {\n"
         << "    style=dotted; label=\"t" << t << "\";\n";
      for (NodeId id = 0; id < limit; ++id) {
        if (g.thread_of(id) != t) continue;
        os << "    n" << id << " [label=\"" << label(id) << "\"";
        if (g.is_touch(id)) os << ", shape=doublecircle";
        if (g.is_fork(id)) os << ", style=filled, fillcolor=lightgray";
        os << "];\n";
      }
      os << "  }\n";
    }
  } else {
    for (NodeId id = 0; id < limit; ++id)
      os << "  n" << id << " [label=\"" << label(id) << "\"];\n";
  }

  for (NodeId id = 0; id < limit; ++id) {
    for (const HalfEdge& out : g.successors(id)) {
      if (out.node >= limit) continue;
      os << "  n" << id << " -> n" << out.node;
      switch (out.kind) {
        case EdgeKind::Continuation:
          break;
        case EdgeKind::Future:
          os << " [style=dashed]";
          break;
        case EdgeKind::Touch:
          os << " [style=dotted]";
          break;
      }
      os << ";\n";
    }
  }
  if (limit < g.num_nodes())
    os << "  truncated [shape=box, label=\"… " << (g.num_nodes() - limit)
       << " more nodes\"];\n";
  os << "}\n";
  return os.str();
}

}  // namespace wsf::core
