#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank of the q-quantile among n samples: ceil(q * n),
/// with a small tolerance so 0.9 * 100 selects rank 90, not 91.
std::size_t nearest_rank(double q, std::size_t n) {
  const double exact = q * static_cast<double>(n);
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::size_t min_samples_for_tail(double q, std::size_t min_beyond) {
  std::size_t n = min_beyond;
  while (n - nearest_rank(q, n) < min_beyond) ++n;
  return n;
}

std::optional<double> tail_percentile(std::vector<double> v, double q, std::size_t min_beyond) {
  if (v.empty() || q <= 0.0 || q >= 1.0) return std::nullopt;
  const std::size_t rank = nearest_rank(q, v.size());
  if (v.size() - rank < min_beyond) return std::nullopt;
  std::sort(v.begin(), v.end());
  return v[rank - 1];
}

std::vector<double> window_percentiles(const std::vector<double>& v, double q,
                                       std::size_t min_beyond) {
  const std::size_t n = min_samples_for_tail(q, min_beyond);
  std::vector<double> out;
  for (std::size_t lo = 0; lo + n <= v.size(); lo += n)
    out.push_back(*tail_percentile({v.begin() + lo, v.begin() + lo + n}, q, min_beyond));
  return out;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(q, v.size()) - 1];
}

}  // namespace perfbench
