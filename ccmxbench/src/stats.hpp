// Order statistics used by the benchmark's reports.
#pragma once

#include <cstddef>
#include <vector>

namespace ccmxbench {

/// The q-quantile (0 <= q <= 1) with linear interpolation between order
/// statistics (the "type 7" rule).  Requires a non-empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);

[[nodiscard]] double median(std::vector<double> values);

/// Samples of an n-sample set that lie above its p-th percentile:
/// n - ceil(n * p / 100).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double percent);

/// The highest of the percentiles 50, 90, 99 and 99.9 that has at least
/// ten samples beyond it, or 0 when even the median has fewer.  A tail
/// percentile is only reported when this is at least that percentile.
[[nodiscard]] double highest_reportable_percentile(std::size_t n);

/// Smallest sample count for which `percent` is reportable.
[[nodiscard]] std::size_t samples_needed_for(double percent);

}  // namespace ccmxbench
