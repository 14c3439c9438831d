// Quickstart: spawn futures on the work-stealing runtime, touch them, and
// read the schedule counters. Build & run:
//   cmake -B build -S . && cmake --build build -j
//   ./build/examples/quickstart
#include <cstdio>

#include "runtime/pool.hpp"

namespace rt = wsf::runtime;
using wsf::core::ForkPolicy;

namespace {

std::uint64_t fib(std::uint64_t n) {
  if (n < 2) return n;
  if (n < 12) return fib(n - 1) + fib(n - 2);  // serial cutoff
  // Spawn fib(n-1) as a future (the paper's recommended future-first policy
  // runs it immediately and leaves our continuation stealable), compute
  // fib(n-2) ourselves, then touch.
  auto left = rt::spawn([n] { return fib(n - 1); });
  const std::uint64_t right = fib(n - 2);
  return left.touch() + right;
}

}  // namespace

int main() {
  rt::RuntimeOptions opts;
  opts.workers = 4;
  opts.policy = ForkPolicy::FutureFirst;
  rt::Scheduler sched(opts);

  const std::uint64_t result = sched.run([] { return fib(26); });
  std::printf("fib(26) = %llu\n", static_cast<unsigned long long>(result));

  // Software schedule counters — the quantities the paper reasons about.
  std::printf("counters: %s\n", sched.counters().to_string().c_str());

  // The runtime enforces the single-touch discipline (Definition 2):
  try {
    sched.run([] {
      auto f = rt::spawn([] { return 1; });
      (void)f.touch();
      return f.touch();  // second touch → error
    });
  } catch (const wsf::CheckError& e) {
    std::printf("single-touch enforcement works: %s\n", e.what());
  }
  return 0;
}
