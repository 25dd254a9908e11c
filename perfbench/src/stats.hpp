#pragma once

// Sample statistics for the end-to-end benchmark: medians and tail
// percentiles that refuse to report a tail the samples cannot support.

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 when empty.
double median(std::vector<double> v);

/// Samples needed before the q-quantile has `min_beyond` samples above it.
std::size_t min_samples_for_tail(double q, std::size_t min_beyond = 10);

/// Nearest-rank q-quantile of `v` (q in (0, 1)).  nullopt unless at least
/// `min_beyond` samples lie strictly beyond the selected rank, so a p90
/// needs 100 samples and is never an interpolation of a handful of values.
std::optional<double> tail_percentile(std::vector<double> v, double q,
                                      std::size_t min_beyond = 10);

/// tail_percentile of each consecutive window of min_samples_for_tail(q,
/// min_beyond) samples of `v`, in order; a trailing partial window is dropped.
std::vector<double> window_percentiles(const std::vector<double>& v, double q,
                                       std::size_t min_beyond = 10);

/// Nearest-rank q-quantile of `v` with no tail requirement; 0 when empty.
double quantile(std::vector<double> v, double q);

}  // namespace perfbench
