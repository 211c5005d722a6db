#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace repro::util {
namespace {

TEST(Stats, MedianOddAndEvenSizes) {
  EXPECT_EQ(median({7.0}), 7.0);
  EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(median({9.0, -2.0, 4.0, 4.0, 0.5}), 4.0);
  // Even sizes average the two middle order statistics.
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({2.0, 7.0, 2.0, 1.0}), 2.0);
  EXPECT_EQ(median({-1.0, 8.0}), 3.5);
  // The even-size expression is 0.5 * (upper + lower), the bits the robust
  // predictor's residual scale and the CUSUM baseline have always used.
  util::Rng rng(33);
  for (std::size_t n : {6u, 11u, 40u, 41u}) {
    std::vector<double> v(n);
    for (double& x : v) x = rng.normal();
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    const double want = (n % 2 == 1)
                            ? sorted[n / 2]
                            : 0.5 * (sorted[n / 2] + sorted[n / 2 - 1]);
    EXPECT_EQ(median(v), want) << n;
  }
  EXPECT_THROW((void)median({}), std::invalid_argument);
}

TEST(Stats, NormalCdfKnownPoints) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-12);
  EXPECT_NEAR(normal_cdf(-1.0), 1.0 - 0.8413447460685429, 1e-12);
  EXPECT_NEAR(normal_cdf(3.0), 0.9986501019683699, 1e-12);
}

TEST(Stats, CorrelationPerfectAndNone) {
  std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  std::vector<double> b{2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(correlation(a, b), 1.0, 1e-12);
  std::vector<double> c{-1.0, -2.0, -3.0, -4.0};
  EXPECT_NEAR(correlation(a, c), -1.0, 1e-12);
  std::vector<double> flat{5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(correlation(a, flat), 0.0);
}

TEST(Stats, RunningStatsKnownSample) {
  RunningStats rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(x);
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 4.0);  // population variance
  EXPECT_DOUBLE_EQ(rs.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(Stats, RunningStatsLargeOffsetKeepsVariance) {
  // Welford's update keeps the spread of values far from zero, where
  // E[x^2] - E[x]^2 cancels catastrophically.
  RunningStats rs;
  for (double x : {4.0, 7.0, 13.0, 16.0}) rs.add(1e9 + x);
  EXPECT_NEAR(rs.mean(), 1e9 + 10.0, 1e-6);
  EXPECT_NEAR(rs.variance(), 22.5, 1e-6);
}

TEST(Stats, RunningStatsEmptyAndSingle) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  rs.add(7.0);
  EXPECT_DOUBLE_EQ(rs.mean(), 7.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

}  // namespace
}  // namespace repro::util
