// Unit test of the percentile helpers: nearest-rank percentiles and the
// rule that a tail percentile needs ten samples above it.
#include <cstdio>
#include <vector>

#include "stats.hpp"

using namespace wsf_bench;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

}  // namespace

int main() {
  expect(nearest_rank(0, 0.5) == 0, "empty input has no rank");
  expect(nearest_rank(4, 0.5) == 2, "p50 of 4 is the 2nd sample");
  expect(nearest_rank(5, 0.5) == 3, "p50 of 5 is the 3rd sample");
  expect(nearest_rank(100, 0.9) == 90, "p90 of 100 is the 90th sample");
  expect(nearest_rank(1000, 0.99) == 990, "p99 of 1000 is the 990th");
  expect(nearest_rank(10, 0.0) == 1, "p0 clamps to the first sample");
  expect(nearest_rank(10, 1.0) == 10, "p100 is the last sample");

  expect(percentile(one_to(4), 0.5) == 2, "p50 of 1..4 is 2");
  expect(percentile(one_to(100), 0.9) == 90, "p90 of 1..100 is 90");
  expect(percentile(one_to(1000), 0.99) == 990, "p99 of 1..1000 is 990");
  expect(percentile({}, 0.5) == 0, "percentile of nothing is 0");
  expect(median(one_to(7)) == 4, "median of 1..7 is 4");

  expect(samples_above(100, 0.9) == 10, "p90 of 100 leaves 10 above");
  expect(tail_supported(100, 0.9), "p90 needs 100 samples: 100 is enough");
  expect(!tail_supported(99, 0.9), "p90 needs 100 samples: 99 is not");
  expect(tail_supported(1000, 0.99), "p99 needs 1000 samples");
  expect(!tail_supported(999, 0.99), "p99 of 999 leaves only 9 above");
  expect(!tail_supported(0, 0.5), "no samples support nothing");

  if (failures == 0) std::printf("test_stats: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
