#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace wsf_bench {

std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) return 0;
  // The epsilon keeps products such as 0.9 × 100 from rounding up a rank
  // because of the binary representation of q.
  const double exact = q * static_cast<double>(n);
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

std::size_t samples_above(std::size_t n, double q) {
  return n - nearest_rank(n, q);
}

bool tail_supported(std::size_t n, double q) {
  return n > 0 && samples_above(n, q) >= kSamplesAboveTail;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  const std::size_t rank = nearest_rank(samples.size(), q);
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

}  // namespace wsf_bench
