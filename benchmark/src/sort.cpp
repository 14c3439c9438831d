// sort: parallel quicksort with spawn/touch over seeded u32 keys, std::sort
// leaves of at most 4096 elements. Its few thousand spawns sit between
// memory-bound partitions over a working set larger than the private
// caches, so a faster spawn or fiber switch should leave it unchanged while
// steal placement and locality should move it — the paper's cache concern
// at a realistic size.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "closed.hpp"
#include "runtime/future.hpp"

namespace rt = wsf::runtime;

namespace wsf_bench {

namespace {

constexpr std::size_t kLeaf = 4096;

void quicksort(std::uint32_t* a, std::size_t n, bool parallel) {
  if (n <= kLeaf) {
    std::sort(a, a + n);
    return;
  }
  const std::uint32_t x = a[0], y = a[n / 2], z = a[n - 1];
  const std::uint32_t pivot =
      std::max(std::min(x, y), std::min(std::max(x, y), z));  // median
  std::uint32_t* lt = std::partition(a, a + n, [pivot](std::uint32_t v) {
    return v < pivot;
  });
  std::uint32_t* gt = std::partition(lt, a + n, [pivot](std::uint32_t v) {
    return v == pivot;
  });
  const auto left_n = static_cast<std::size_t>(lt - a);
  const auto right_n = static_cast<std::size_t>(a + n - gt);
  if (!parallel) {
    quicksort(a, left_n, false);
    quicksort(gt, right_n, false);
    return;
  }
  auto left = rt::spawn([a, left_n] { quicksort(a, left_n, true); });
  quicksort(gt, right_n, true);
  left.touch();
}

struct Checksum {
  std::uint64_t sum = 0;
  std::uint32_t xor_all = 0;
  bool operator==(const Checksum&) const = default;
};

Checksum checksum(const std::vector<std::uint32_t>& v) {
  Checksum c;
  for (const std::uint32_t x : v) {
    c.sum += x;
    c.xor_all ^= x;
  }
  return c;
}

}  // namespace

void run_sort(const Options& opts, Report& report, Tracer* tracer) {
  const std::size_t n = std::size_t{1} << (opts.smoke ? 16 : 22);
  std::vector<std::uint32_t> input;
  std::vector<std::uint32_t> work;
  Checksum expected;
  ClosedWorkload w;
  w.min_runs = opts.smoke ? 5 : 100;
  w.setup = [&] {
    w.sched.reset();
    std::uint64_t state = opts.seed;
    input.resize(n);
    for (auto& x : input) x = static_cast<std::uint32_t>(splitmix64(state));
    expected = checksum(input);
    w.sched = std::make_unique<rt::Scheduler>(
        rt::RuntimeOptions{.workers = kWorkers, .seed = opts.seed});
    work = input;
    w.sched->run([&] { quicksort(work.data(), n, true); });
    report.check(std::is_sorted(work.begin(), work.end()), "warmup sort");
  };
  w.prepare = [&] { std::copy(input.begin(), input.end(), work.begin()); };
  w.body = [&] {
    quicksort(work.data(), n, true);
    return 0L;
  };
  w.check = [&](long) {
    return std::is_sorted(work.begin(), work.end()) &&
           checksum(work) == expected;
  };
  w.sequential = [&] { quicksort(work.data(), n, false); };
  report.note("sort: " + std::to_string(n) + " u32 keys (" +
              std::to_string(n * 4 >> 10) + " KiB), leaves <= " +
              std::to_string(kLeaf));
  run_closed(opts, report, tracer, w);
}

}  // namespace wsf_bench
