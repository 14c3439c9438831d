// Local-touch pipeline on the real runtime (Definition 3 / Section 6.1;
// Blelloch & Reid-Miller's pipelining-with-futures): each stage is a future
// thread producing a stream of per-item futures that only its parent stage
// touches. Here: a 3-stage text pipeline (generate → transform → reduce).
#include <cstdio>
#include <vector>

#include "runtime/pool.hpp"

namespace rt = wsf::runtime;
using wsf::core::ForkPolicy;

namespace {

constexpr int kItems = 64;

/// Stage 2 (innermost producer): generate the raw items.
std::vector<rt::Future<int>> stage_generate() {
  std::vector<rt::Future<int>> out;
  out.reserve(kItems);
  for (int i = 0; i < kItems; ++i)
    out.push_back(rt::spawn([i] { return i * i; }));
  return out;
}

/// Stage 1: transform each item; touches stage 2's futures (its child's),
/// producing its own futures for stage 0.
std::vector<rt::Future<int>> stage_transform() {
  auto upstream = stage_generate();
  std::vector<rt::Future<int>> out;
  out.reserve(kItems);
  for (auto& item : upstream) {
    // Local touch: this thread created `upstream`, this thread consumes it.
    const int v = item.touch();
    out.push_back(rt::spawn([v] { return v + 1; }));
  }
  return out;
}

}  // namespace

int main() {
  rt::RuntimeOptions opts;
  opts.workers = 4;
  opts.policy = ForkPolicy::FutureFirst;  // the paper's recommendation
  rt::Scheduler sched(opts);

  const long total = sched.run([] {
    auto items = stage_transform();
    long sum = 0;
    for (auto& f : items) sum += f.touch();  // stage 0: reduce
    return sum;
  });

  long expected = 0;
  for (int i = 0; i < kItems; ++i) expected += i * i + 1;
  std::printf("pipeline sum = %ld (expected %ld) — %s\n", total, expected,
              total == expected ? "OK" : "WRONG");
  std::printf("counters: %s\n", sched.counters().to_string().c_str());
  return 0;
}
