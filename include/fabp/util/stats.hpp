#pragma once
// Streaming and batch statistics used by the mutation-frequency experiment
// (E5) and the benchmark harnesses.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace fabp::util {

/// Welford-style streaming accumulator: numerically stable mean/variance,
/// plus min/max, usable incrementally from any experiment loop.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Fixed-memory histogram of positive values (latencies): log-spaced
/// buckets, each 2 % wider than the one before, from 1e-3 to about 2e7
/// (the server records milliseconds: 1 us to ~6 h), plus the exact
/// extremes.  A percentile reads as the geometric midpoint of the bucket
/// holding that rank, so it lies within 1 % of the recorded sample of that
/// rank (values below 1e-3 share the first bucket).  Not thread-safe.
class LogHistogram {
 public:
  void record(double value) noexcept;

  std::size_t count() const noexcept { return count_; }
  double max() const noexcept { return max_; }
  /// Nearest-rank p-th percentile (0..100), clamped to the recorded
  /// extremes; 0 when empty.
  double percentile(double p) const noexcept;

 private:
  static constexpr double kFloor = 1e-3;
  static constexpr double kGrowth = 1.02;
  static constexpr std::size_t kBuckets = 1200;

  std::array<std::uint64_t, kBuckets> counts_{};
  std::size_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Median of a sample (copies; does not reorder the input).
double median(std::span<const double> xs);

/// p-th percentile (0..100) by linear interpolation between closest ranks.
double percentile(std::span<const double> xs, double p);

/// Geometric mean; all inputs must be > 0.
double geomean(std::span<const double> xs);

/// Convenience: arithmetic mean of a span (0 if empty).
double mean(std::span<const double> xs);

}  // namespace fabp::util
