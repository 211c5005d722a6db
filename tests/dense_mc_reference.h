// Dense reference of the Monte-Carlo die-stream engine, shared by the tests
// that check the engine's row-compressed products and its row source
// against dense copies of the sensitivity rows.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "core/monte_carlo.h"
#include "linalg/gemm.h"
#include "util/rng.h"

namespace repro::test {

// Chunk ci holds dies [ci * chunk, ...), die k draws x from stream(seed, k),
// and both products are dense linalg::multiply calls.  score(first, truth,
// meas) sees every chunk in order.
template <class Score>
void dense_die_chunks(const linalg::Matrix& a_rem, const linalg::Matrix& a_meas,
                      const core::McOptions& opt, Score&& score) {
  const std::size_t m = a_rem.cols();
  for (std::size_t first = 0; first < opt.samples; first += opt.chunk) {
    const std::size_t c = std::min(opt.chunk, opt.samples - first);
    linalg::Matrix x(m, c);
    for (std::size_t j = 0; j < c; ++j) {
      util::Rng rng = util::Rng::stream(opt.seed, first + j);
      for (std::size_t i = 0; i < m; ++i) x(i, j) = rng.normal();
    }
    score(first, linalg::multiply(a_rem, x), linalg::multiply(a_meas, x));
  }
}

// Per-path max and chunk-ordered sum of |pred - truth| / |truth|, as the
// engine reduces them.
struct RefErr {
  std::vector<double> max, sum;
  explicit RefErr(std::size_t n) : max(n, 0.0), sum(n, 0.0) {}
  void merge(const RefErr& part) {
    for (std::size_t i = 0; i < max.size(); ++i) {
      max[i] = std::max(max[i], part.max[i]);
      sum[i] += part.sum[i];
    }
  }
  void add(std::size_t i, double pred, double truth) {
    const double rel = std::abs(pred - truth) / std::abs(truth);
    max[i] = std::max(max[i], rel);
    sum[i] += rel;
  }
  // The per-path means over `samples` dies.
  std::vector<double> mean(std::size_t samples) const {
    std::vector<double> out = sum;
    for (double& v : out) v /= static_cast<double>(samples);
    return out;
  }
};

}  // namespace repro::test
