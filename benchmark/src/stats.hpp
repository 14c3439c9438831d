// Percentile helpers for the benchmark's timing distributions.
//
// Percentiles are nearest-rank: the q-th percentile of n sorted samples is
// the sample at 1-based rank ceil(q·n). A tail percentile is only reported
// as such when at least ten samples lie above it (choosing-metrics §1), so
// p90 needs 100 samples and p99 needs 1000.
#pragma once

#include <cstddef>
#include <vector>

namespace wsf_bench {

/// Samples that must lie above a reported tail percentile.
inline constexpr std::size_t kSamplesAboveTail = 10;

/// 1-based nearest rank of the q-th percentile of n samples, clamped to
/// [1, n]; 0 when n == 0. q is a fraction in [0, 1].
std::size_t nearest_rank(std::size_t n, double q);

/// Samples strictly above the nearest-rank q-th percentile of n samples.
std::size_t samples_above(std::size_t n, double q);

/// True when n samples leave at least kSamplesAboveTail above the q-th
/// percentile.
bool tail_supported(std::size_t n, double q);

/// Nearest-rank q-th percentile of the samples (copied and partially
/// sorted); 0 for an empty input.
double percentile(std::vector<double> samples, double q);

inline double median(const std::vector<double>& samples) {
  return percentile(samples, 0.5);
}

}  // namespace wsf_bench
