// wsf-bench — one workload per process: fib, sort, stream or sweep.
//
//   wsf-bench --workload=fib --seed=1 [--seconds=20] [--trace=out.json]
//             [--smoke]
//
// An untraced run prints the end-to-end metrics; a traced run (--trace)
// splits its time between an untraced window, the unit-cost phase and a
// traced window, prints the per-layer metrics and writes a Chrome trace.
// The report goes to stderr; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
// when every output check passed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "bench.hpp"
#include "trace.hpp"

using namespace wsf_bench;

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run reports. A workload that does not
/// exercise a layer leaves its metrics at 0.
constexpr LayerMetric kLayerMetrics[] = {
    {"spawn.touch_ns", "ns"},          {"spawns", "count/op"},
    {"fiber.resumes", "count/op"},     {"touch.parked", "count/op"},
    {"migrations", "count/op"},        {"local.pops", "count/op"},
    {"deque.push_pop_ns", "ns"},       {"deque.steal_ns", "ns"},
    {"deque.steal_batch_item_ns", "ns"}, {"steals", "count/op"},
    {"steal.attempts", "count/op"},    {"steal.success_frac", "ratio"},
    {"steal.backoffs", "count/op"},    {"inbox.submit_ns", "ns"},
    {"inbox.queue_p50_us", "us"},      {"inbox.queue_p99_us", "us"},
    {"inbox.idle_wake_us", "us"},      {"inbox.takes", "count/op"},
    {"replay.stage_ns", "ns"},         {"replay.collect_ns", "ns"},
    {"replay.node_ns", "ns"},          {"job.service_p50_us", "us"},
    {"job.service_p99_us", "us"},      {"sim.round_ns", "ns"},
    {"sim.steps", "count"},            {"cache.access_ns", "ns"},
    {"deviation.node_ns", "ns"},       {"sweep.config_ms_p50", "ms"},
    {"sweep.config_ms_max", "ms"},     {"sweep.tail_frac", "ratio"},
    {"graphs.gen_ms", "ms"},           {"gen.late_p99_us", "us"},
    {"seq_ms", "ms"},                  {"budget.unexplained_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "wsf-bench: %s\n"
               "usage: wsf-bench --workload=fib|sort|stream|sweep --seed=N "
               "[--seconds=S] [--trace=out.json] [--smoke]\n",
               why);
  return 2;
}

bool parse_number(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return !text.empty() && end && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    double number = 0;
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      if (value.empty() || value.size() > 19 ||
          value.find_first_not_of("0123456789") != std::string::npos)
        return usage("--seed needs a non-negative integer");
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      if (!parse_number(value, number) || number <= 0 || number > 600)
        return usage("--seconds needs a number in (0, 600]");
      opts.seconds = number;
      seconds_given = true;
    } else if (key == "--trace") {
      if (value.empty()) return usage("--trace needs an output path");
      opts.trace_path = value;
    } else if (arg == "--smoke") {
      opts.smoke = true;
    } else {
      return usage(("unknown argument '" + arg + "'").c_str());
    }
  }
  if (opts.smoke && !seconds_given) opts.seconds = 0.4;

  void (*workload)(const Options&, Report&, Tracer*) = nullptr;
  if (opts.workload == "fib") workload = run_fib;
  if (opts.workload == "sort") workload = run_sort;
  if (opts.workload == "stream") workload = run_stream;
  if (opts.workload == "sweep") workload = run_sweep;
  if (!workload) return usage("--workload must be fib, sort, stream or sweep");

  Report report;
  std::unique_ptr<Tracer> tracer;
  if (!opts.trace_path.empty()) {
    tracer = std::make_unique<Tracer>();
    for (const LayerMetric& m : kLayerMetrics) report.metric(m.name, 0, m.unit);
  }
  try {
    workload(opts, report, tracer.get());
  } catch (const std::exception& e) {
    report.check(false, std::string("workload threw: ") + e.what());
  }
  report.metric("rss_mb", peak_rss_mb(), "MB");
  report.metric("fail_frac", report.fail_frac(), "ratio");
  if (tracer) {
    for (const SelfTime& s : tracer->self_times()) {
      char line[160];
      std::snprintf(line, sizeof line,
                    "self time %-22s %8llu spans %12.3f ms total "
                    "%12.3f ms self",
                    s.name.c_str(), static_cast<unsigned long long>(s.spans),
                    s.total_ms, s.self_ms);
      report.note(line);
    }
    report.check(tracer->write_chrome_json(opts.trace_path),
                 "trace written to " + opts.trace_path);
    report.note(std::to_string(tracer->size()) + " spans written to " +
                opts.trace_path);
  }

  std::fprintf(stderr, "wsf-bench %s seed=%llu seconds=%g%s%s\n%s",
               opts.workload.c_str(),
               static_cast<unsigned long long>(opts.seed), opts.seconds,
               opts.smoke ? " smoke" : "", tracer ? " traced" : "",
               report.text().c_str());
  std::printf("%s\n", report.json().c_str());
  return report.correct() ? 0 : 1;
}
