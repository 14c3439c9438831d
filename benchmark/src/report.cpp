#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <sstream>

#include "bench.hpp"
#include "stats.hpp"

namespace wsf_bench {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (Entry& e : metrics_)
    if (e.name == name) {
      e = {name, value, unit};
      return;
    }
  metrics_.push_back({name, value, unit});
}

void Report::ops(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

void Report::note(const std::string& line) { notes_.push_back(line); }

std::string Report::json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  const char* sep = "";
  for (const Entry& e : metrics_) {
    // JSON has no NaN/inf; a metric that could not be computed reads -1.
    const double v = std::isfinite(e.value) ? e.value : -1;
    out << sep << "\"" << e.name << "\": {\"value\": " << v
        << ", \"unit\": \"" << e.unit << "\"}";
    sep = ", ";
  }
  out << "}}";
  return out.str();
}

std::string Report::text() const {
  std::ostringstream out;
  char line[160];
  for (const Entry& e : metrics_) {
    std::snprintf(line, sizeof line, "  %-28s %16.6g %s\n", e.name.c_str(),
                  e.value, e.unit.c_str());
    out << line;
  }
  for (const std::string& n : notes_) out << "  " << n << "\n";
  std::snprintf(line, sizeof line, "  attempted %llu, failed %llu\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
  out << line;
  for (const std::string& e : errors_) out << "  FAILED CHECK: " << e << "\n";
  return out.str();
}

double timed_setup(const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = now_ns();
    setup();
    seconds.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return median(seconds);
}

void add_runtime_counts(Report& report,
                        const wsf::runtime::WorkerCounters& d, double ops) {
  const auto per_op = [&](const char* name, std::uint64_t count) {
    report.metric(name, ops > 0 ? static_cast<double>(count) / ops : 0,
                  "count/op");
  };
  per_op("spawns", d.spawns);
  per_op("fiber.resumes", d.fiber_resumes);
  per_op("touch.parked", d.parked_touches);
  per_op("migrations", d.migrations);
  per_op("local.pops", d.local_pops);
  per_op("steals", d.steals);
  per_op("steal.attempts", d.steal_attempts);
  per_op("steal.backoffs", d.steal_backoffs);
  per_op("inbox.takes", d.inbox_takes);
  report.metric("steal.success_frac",
                d.steal_attempts == 0
                    ? 0
                    : static_cast<double>(d.steals) /
                          static_cast<double>(d.steal_attempts),
                "ratio");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void add_budget(Report& report, double wall_ns,
                const std::vector<std::pair<std::string, double>>& terms_ns) {
  const double capacity_ns = kWorkers * wall_ns;
  double explained_ns = 0;
  std::ostringstream line;
  line.precision(4);
  line << "budget: capacity " << capacity_ns / 1e6 << " ms (" << kWorkers
       << " workers x wall)";
  for (const auto& [name, ns] : terms_ns) {
    explained_ns += ns;
    line << ", " << name << " " << ns / 1e6 << " ms";
  }
  report.note(line.str());
  report.metric("budget.unexplained_frac",
                capacity_ns > 0 ? 1 - explained_ns / capacity_ns : 0, "ratio");
}

}  // namespace wsf_bench
