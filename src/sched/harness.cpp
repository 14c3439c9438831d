#include "sched/harness.hpp"

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

namespace wsf::sched {

std::string format_schedule(const core::Graph& g, const SimResult& par,
                            const core::DeviationReport& deviations,
                            std::size_t max_nodes) {
  std::ostringstream os;
  for (std::size_t p = 0; p < par.proc_orders.size(); ++p) {
    os << "p" << p << ":";
    const auto& order = par.proc_orders[p];
    const std::size_t shown = std::min(order.size(), max_nodes);
    for (std::size_t i = 0; i < shown; ++i) {
      const core::NodeId v = order[i];
      os << ' ';
      if (deviations.is_deviation[v]) os << '*';
      const std::string& role = g.role_of(v);
      if (!role.empty())
        os << role;
      else
        os << v;
    }
    if (shown < order.size())
      os << " … (+" << order.size() - shown << ")";
    os << "\n";
  }
  return os.str();
}

ExperimentResult run_experiment(const core::Graph& g, const SimOptions& opts,
                                ScheduleController* controller) {
  ExperimentResult r;
  // Deviation counting compares per-processor orders against the sequential
  // order, so the parallel run always records its trace.
  SimOptions par_opts = opts;
  par_opts.record_trace = true;
  // The stats and the baseline read the simulator's layout, so the
  // experiment builds one.
  Simulator sim(g, par_opts, controller);
  r.stats = core::compute_stats(sim.layout());
  r.seq = run_sequential(sim.layout(), opts);
  r.par = sim.run();
  r.deviations = core::count_deviations(g, r.seq.order, r.par.proc_orders);
  r.additional_misses = static_cast<std::int64_t>(r.par.total_misses()) -
                        static_cast<std::int64_t>(r.seq.misses);
  return r;
}

}  // namespace wsf::sched
