// Divide-and-conquer quicksort on the runtime — the classic fork-join
// special case of structured single-touch computations, under both spawn
// policies.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "runtime/pool.hpp"
#include "support/rng.hpp"

namespace rt = wsf::runtime;
using wsf::core::ForkPolicy;

namespace {

void qsort_par(std::vector<int>& v, std::ptrdiff_t lo, std::ptrdiff_t hi) {
  if (hi - lo < 1024) {
    std::sort(v.begin() + lo, v.begin() + hi);
    return;
  }
  const int pivot = v[lo + (hi - lo) / 2];
  const auto mid1 = std::partition(v.begin() + lo, v.begin() + hi,
                                   [&](int x) { return x < pivot; });
  const auto mid2 =
      std::partition(mid1, v.begin() + hi, [&](int x) { return x == pivot; });
  const std::ptrdiff_t m1 = mid1 - v.begin();
  const std::ptrdiff_t m2 = mid2 - v.begin();
  auto left = rt::spawn([&v, lo, m1] { qsort_par(v, lo, m1); });
  qsort_par(v, m2, hi);
  left.touch();  // join
}

}  // namespace

int main() {
  for (auto policy :
       {ForkPolicy::FutureFirst, ForkPolicy::ParentFirst}) {
    rt::RuntimeOptions opts;
    opts.workers = 4;
    opts.policy = policy;
    rt::Scheduler sched(opts);

    std::vector<int> v(1 << 17);
    wsf::support::Xoshiro256 rng(42);
    for (auto& x : v) x = static_cast<int>(rng.next() & 0xfffff);

    sched.run([&] { qsort_par(v, 0, static_cast<std::ptrdiff_t>(v.size())); });

    std::printf("[%s] sorted %zu ints: %s | %s\n", to_string(policy),
                v.size(),
                std::is_sorted(v.begin(), v.end()) ? "OK" : "WRONG",
                sched.counters().to_string().c_str());
  }
  return 0;
}
