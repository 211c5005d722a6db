// Small statistics helpers shared by the variation model, the error model and
// the Monte-Carlo evaluation.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace repro::util {

// Sample median by selection, O(n): the middle element, or for an even size
// 0.5 * (upper middle + largest of the lower half).  Throws on an empty
// sample.
double median(std::vector<double> v);

// Standard normal CDF.
double normal_cdf(double z);

// Pearson correlation of two equally sized samples.
double correlation(std::span<const double> a, std::span<const double> b);

// Running mean/variance accumulator (Welford) used by Monte Carlo loops so we
// never need to keep all N=10,000 samples per path in memory.
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  double variance() const;  // population variance
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace repro::util
