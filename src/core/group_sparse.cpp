#include "core/group_sparse.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/gemm.h"
#include "util/telemetry.h"

namespace repro::core {

// Shape preconditions are validated unconditionally below in every build;
// a contract would duplicate them.
// repro-lint: allow(contracts)
linalg::Matrix build_segment_quadratic(const linalg::Matrix& sigma,
                                       const linalg::Vector& mu_s,
                                       double kappa) {
  const std::size_t ns = sigma.rows();
  if (mu_s.size() != ns) {
    throw std::invalid_argument("build_segment_quadratic: shape mismatch");
  }
  const util::telemetry::Span span("core.hybrid.segment_quadratic");
  linalg::Matrix q = linalg::gram(sigma);
  q *= kappa * kappa;
  for (std::size_t i = 0; i < ns; ++i) {
    for (std::size_t j = 0; j < ns; ++j) q(i, j) += mu_s[i] * mu_s[j];
  }
  return q;
}

// Shape and bound preconditions are validated unconditionally below in
// every build; a contract would duplicate them.
// repro-lint: allow(contracts)
GroupSparseResult select_segments(const linalg::Matrix& g_r1,
                                  const linalg::Matrix& q, double bound) {
  const std::size_t r1 = g_r1.rows();
  const std::size_t ns = g_r1.cols();
  if (q.rows() != ns || q.cols() != ns) {
    throw std::invalid_argument("select_segments: shape mismatch");
  }
  if (bound <= 0.0) throw std::invalid_argument("select_segments: bound <= 0");
  const util::telemetry::Span span("core.hybrid.segment_greedy");
  const double t2 = bound * bound;

  // C: the Schur complement of Q on the chosen segments; T = G_r1 C;
  // v_i = g_i C g_i^T, row i's achieved WC^2.
  linalg::Matrix c = q;
  linalg::Matrix t = linalg::multiply(g_r1, c);
  linalg::Vector v(r1);
  for (std::size_t i = 0; i < r1; ++i) {
    v[i] = linalg::dot(g_r1.row(i), t.row(i));
  }
  const auto violated = [&] {
    return std::any_of(v.begin(), v.end(), [&](double x) { return x > t2; });
  };

  std::vector<char> chosen(ns, 0);
  const auto candidate = [&](std::size_t j) {
    return !chosen[j] && c(j, j) > 0.0;
  };
  linalg::Vector score(ns);
  linalg::Vector cj(ns), tj(r1);
  while (violated()) {
    // Each candidate's score: the violation it removes, row by row, capped
    // at each row's excess over t^2.
    std::fill(score.begin(), score.end(), 0.0);
    for (std::size_t i = 0; i < r1; ++i) {
      const double excess = v[i] - t2;
      if (excess <= 0.0) continue;
      for (std::size_t j = 0; j < ns; ++j) {
        if (!candidate(j)) continue;
        score[j] += std::min(excess, t(i, j) * t(i, j) / c(j, j));
      }
    }
    std::size_t best = ns;
    for (std::size_t j = 0; j < ns; ++j) {
      if (!candidate(j)) continue;
      if (best == ns || score[j] > score[best]) best = j;
    }
    if (best == ns) break;  // cancellation floor: no candidate left

    // Rank-1 updates conditioning on segment `best`.
    const double d = c(best, best);
    std::copy_n(c.row(best).data(), ns, cj.data());  // C symmetric
    for (std::size_t i = 0; i < r1; ++i) tj[i] = t(i, best);
    for (std::size_t a = 0; a < ns; ++a) {
      for (std::size_t b = 0; b < ns; ++b) c(a, b) -= cj[a] * cj[b] / d;
    }
    for (std::size_t i = 0; i < r1; ++i) {
      for (std::size_t b = 0; b < ns; ++b) t(i, b) -= tj[i] * cj[b] / d;
      v[i] -= tj[i] * tj[i] / d;
    }
    chosen[best] = 1;
  }

  GroupSparseResult out;
  out.row_wc.resize(r1);
  for (std::size_t i = 0; i < r1; ++i) {
    out.row_wc[i] = std::sqrt(std::max(v[i], 0.0));
  }
  for (std::size_t j = 0; j < ns; ++j) {
    if (chosen[j]) out.selected_segments.push_back(static_cast<int>(j));
  }
  return out;
}

}  // namespace repro::core
