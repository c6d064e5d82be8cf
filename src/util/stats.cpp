#include "fabp/util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace fabp::util {

void RunningStats::add(double x) noexcept {
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

double RunningStats::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void LogHistogram::record(double value) noexcept {
  std::size_t bucket = 0;
  if (value > kFloor)  // clamped before the cast: huge values stay defined
    bucket = static_cast<std::size_t>(
        std::min(std::log(value / kFloor) / std::log(kGrowth),
                 static_cast<double>(kBuckets - 1)));
  ++counts_[bucket];
  min_ = count_ == 0 ? value : std::min(min_, value);
  max_ = count_ == 0 ? value : std::max(max_, value);
  ++count_;
}

double LogHistogram::percentile(double p) const noexcept {
  if (count_ == 0) return 0.0;
  const double wanted = std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 *
                                  static_cast<double>(count_));
  const auto rank =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(wanted));
  std::uint64_t seen = 0;
  std::size_t bucket = 0;
  while (bucket + 1 < kBuckets && (seen += counts_[bucket]) < rank) ++bucket;
  const double mid =
      kFloor * std::pow(kGrowth, static_cast<double>(bucket) + 0.5);
  return std::clamp(mid, min_, max_);
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double geomean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

}  // namespace fabp::util
