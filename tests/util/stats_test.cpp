#include "fabp/util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "fabp/util/rng.hpp"

namespace fabp::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Population variance is 4; sample variance = 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, NegativeValues) {
  RunningStats s;
  s.add(-5.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(Median, OddAndEven) {
  const std::array<double, 5> odd{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(median(odd), 3.0);
  const std::array<double, 4> even{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Median, EmptyIsZero) {
  EXPECT_EQ(median(std::span<const double>{}), 0.0);
}

TEST(Percentile, Extremes) {
  const std::array<double, 4> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
}

TEST(Percentile, ClampsOutOfRange) {
  const std::array<double, 2> xs{1, 2};
  EXPECT_DOUBLE_EQ(percentile(xs, -5), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 200), 2.0);
}

TEST(Geomean, KnownValue) {
  const std::array<double, 3> xs{1.0, 8.0, 27.0};
  EXPECT_NEAR(geomean(xs), 6.0, 1e-9);
}

TEST(Geomean, SingleValue) {
  const std::array<double, 1> xs{42.0};
  EXPECT_NEAR(geomean(xs), 42.0, 1e-9);
}

TEST(Mean, Basic) {
  const std::array<double, 4> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_EQ(mean(std::span<const double>{}), 0.0);
}

TEST(LogHistogram, EmptyIsZero) {
  const LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50.0), 0.0);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(LogHistogram, SingleSampleIsExact) {
  LogHistogram h;
  h.record(3.7);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.7);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 3.7);
  EXPECT_DOUBLE_EQ(h.max(), 3.7);
}

// Against the exact nearest-rank sample of a wide (5 decades) sample:
// every percentile within 1 %, the max exact.
TEST(LogHistogram, PercentilesWithinOnePercentOfNearestRank) {
  Xoshiro256 rng{77};
  LogHistogram h;
  std::vector<double> xs;
  for (int i = 0; i < 20'000; ++i) {
    const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
    xs.push_back(0.01 * std::pow(10.0, 5.0 * u));
    h.record(xs.back());
  }
  std::sort(xs.begin(), xs.end());
  EXPECT_EQ(h.count(), xs.size());
  EXPECT_EQ(h.max(), xs.back());
  for (double p : {0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    const auto rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(p / 100.0 * static_cast<double>(xs.size()))));
    const double exact = xs[rank - 1];
    EXPECT_NEAR(h.percentile(p), exact, 0.01 * exact) << "p=" << p;
  }
}

}  // namespace
}  // namespace fabp::util
