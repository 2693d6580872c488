#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace ccmxbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of no samples");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

std::size_t samples_beyond(std::size_t n, double percent) {
  const auto at = static_cast<std::size_t>(
      std::ceil(static_cast<double>(n) * percent / 100.0 - 1e-9));
  return n > at ? n - at : 0;
}

double highest_reportable_percentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    if (samples_beyond(n, p) >= 10) best = p;
  }
  return best;
}

std::size_t samples_needed_for(double percent) {
  std::size_t n = 1;
  while (samples_beyond(n, percent) < 10) ++n;
  return n;
}

}  // namespace ccmxbench
