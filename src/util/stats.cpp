#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace repro::util {
namespace {

double mean(std::span<const double> v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of empty sample");
  const auto h = static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), v.begin() + h, v.end());
  double med = v[static_cast<std::size_t>(h)];
  if (v.size() % 2 == 0) {
    // nth_element leaves the lower half in front of the upper middle.
    med = 0.5 * (med + *std::max_element(v.begin(), v.begin() + h));
  }
  return med;
}

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::numbers::sqrt2); }

double correlation(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size() || a.size() < 2) return 0.0;
  const double ma = mean(a);
  const double mb = mean(b);
  double sab = 0.0, saa = 0.0, sbb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sab += (a[i] - ma) * (b[i] - mb);
    saa += (a[i] - ma) * (a[i] - ma);
    sbb += (b[i] - mb) * (b[i] - mb);
  }
  if (saa == 0.0 || sbb == 0.0) return 0.0;
  return sab / std::sqrt(saa * sbb);
}

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

}  // namespace repro::util
