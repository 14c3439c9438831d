#include "support/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "support/check.hpp"

namespace wsf::support {

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

LinearFit fit_linear(const std::vector<double>& xs,
                     const std::vector<double>& ys) {
  WSF_REQUIRE(xs.size() == ys.size(), "paired samples required");
  WSF_REQUIRE(xs.size() >= 2, "need at least two points to fit a line");
  const auto n = static_cast<double>(xs.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
    syy += ys[i] * ys[i];
  }
  LinearFit fit;
  const double denom = n * sxx - sx * sx;
  if (denom == 0.0) {
    // Degenerate (all x equal): report a flat line through the mean.
    fit.slope = 0.0;
    fit.intercept = sy / n;
    fit.r2 = 0.0;
    return fit;
  }
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  double ss_res = 0, ss_tot = 0;
  const double ymean = sy / n;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double pred = fit.slope * xs[i] + fit.intercept;
    ss_res += (ys[i] - pred) * (ys[i] - pred);
    ss_tot += (ys[i] - ymean) * (ys[i] - ymean);
  }
  fit.r2 = ss_tot == 0.0 ? 1.0 : 1.0 - ss_res / ss_tot;
  return fit;
}

LinearFit fit_loglog(const std::vector<double>& xs,
                     const std::vector<double>& ys) {
  WSF_REQUIRE(xs.size() == ys.size(), "paired samples required");
  std::vector<double> lx, ly;
  lx.reserve(xs.size());
  ly.reserve(ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    WSF_REQUIRE(xs[i] > 0 && ys[i] > 0, "log-log fit needs positive samples");
    lx.push_back(std::log(xs[i]));
    ly.push_back(std::log(ys[i]));
  }
  return fit_linear(lx, ly);
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  double hi = samples[mid];
  if (samples.size() % 2 == 1) return hi;
  std::nth_element(samples.begin(), samples.begin() + mid - 1,
                   samples.begin() + mid);
  return (samples[mid - 1] + hi) / 2.0;
}

}  // namespace wsf::support
