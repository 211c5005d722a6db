#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace repro::util {
namespace {

TEST(Stats, MeanVarianceKnown) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_DOUBLE_EQ(variance(v), 1.25);
  EXPECT_DOUBLE_EQ(stddev(v), std::sqrt(1.25));
}

TEST(Stats, MinMax) {
  std::vector<double> v{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min_value(v), -1.0);
  EXPECT_DOUBLE_EQ(max_value(v), 7.0);
}

TEST(Stats, QuantileInterpolation) {
  std::vector<double> v{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 25.0);
}

TEST(Stats, QuantileEmptyThrows) {
  EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
}

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

TEST(Stats, NormalIcdfInvertsCdf) {
  for (double p : {0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_icdf(p)), p, 1e-10) << "p=" << p;
  }
}

TEST(Stats, NormalIcdfDomainChecked) {
  EXPECT_THROW((void)normal_icdf(0.0), std::invalid_argument);
  EXPECT_THROW((void)normal_icdf(1.0), std::invalid_argument);
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

TEST(Stats, RunningStatsMatchesBatch) {
  Rng rng(5);
  std::vector<double> v(1000);
  RunningStats rs;
  for (double& x : v) {
    x = rng.normal(3.0, 2.0);
    rs.add(x);
  }
  EXPECT_EQ(rs.count(), v.size());
  EXPECT_NEAR(rs.mean(), mean(v), 1e-10);
  EXPECT_NEAR(rs.variance(), variance(v), 1e-8);
  EXPECT_DOUBLE_EQ(rs.min(), min_value(v));
  EXPECT_DOUBLE_EQ(rs.max(), max_value(v));
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
