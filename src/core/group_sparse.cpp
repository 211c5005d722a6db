#include "core/group_sparse.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/cholesky.h"
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
  if (!(bound > 0.0)) throw std::invalid_argument("select_segments: bound");
  const util::telemetry::Span span("core.hybrid.segment_greedy");
  const double t2 = bound * bound;

  // The Schur complement C of Q on the chosen segments is never formed: the
  // engine's residual is its diagonal, and the column it returns for pick j
  // is C(:, j) / sqrt(C_jj).  T = G_r1 C; v_i = g_i C g_i^T, row i's
  // achieved WC^2.
  linalg::CholeskyPivots engine(q);
  const linalg::Vector& cdiag = engine.residual();
  linalg::Matrix t = linalg::multiply(g_r1, q);
  linalg::Vector v(r1);
  for (std::size_t i = 0; i < r1; ++i) {
    v[i] = linalg::dot(g_r1.row(i), t.row(i));
  }
  const auto violated = [&] {
    return std::any_of(v.begin(), v.end(), [&](double x) { return x > t2; });
  };

  std::vector<char> chosen(ns, 0);
  const auto candidate = [&](std::size_t j) {
    return !chosen[j] && cdiag[j] > 0.0;
  };
  linalg::Vector score(ns);
  while (violated()) {
    // Each candidate's score: the violation it removes, row by row, capped
    // at each row's excess over t^2.
    std::fill(score.begin(), score.end(), 0.0);
    for (std::size_t i = 0; i < r1; ++i) {
      const double excess = v[i] - t2;
      if (excess <= 0.0) continue;
      for (std::size_t j = 0; j < ns; ++j) {
        if (!candidate(j)) continue;
        score[j] += std::min(excess, t(i, j) * t(i, j) / cdiag[j]);
      }
    }
    std::size_t best = ns;
    for (std::size_t j = 0; j < ns; ++j) {
      if (!candidate(j)) continue;
      if (best == ns || score[j] > score[best]) best = j;
    }
    if (best == ns) break;  // cancellation floor: no candidate left

    // Condition on segment `best`: with l its column of L and l_kk =
    // sqrt(C_bb), C(:, best) = l l_kk, so T -= T(:, best) C(best, :) / C_bb
    // is T -= (T(:, best) / l_kk) l^T.
    const double d = cdiag[best];
    const linalg::Vector& l = engine.pivot(best);
    const double lkk = l[best];
    for (std::size_t i = 0; i < r1; ++i) {
      double* ti = t.row(i).data();
      const double tib = ti[best];
      for (std::size_t b = 0; b < ns; ++b) ti[b] -= tib / lkk * l[b];
      v[i] -= tib * tib / d;
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
