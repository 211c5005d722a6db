// Convex segment selection (paper Eqn (10)): find a coefficient matrix B
// mapping segment delays to the exactly-selected paths' delays,
//
//   min_B   sum_j ||B column j||_inf        (l1/l-inf relaxation of l0/l-inf)
//   s.t.    WC(Delta_i) <= bound            for every row i,
//
// where Delta_i = (g_i - b_i) d_S and d_S = mu_S + Sigma x.  Segments whose
// column is nonzero are the representative segments S_r1.
//
// Worst case: following the paper's note that the constraint "is quadratic
// with respect to B after taking square operation on both sides", we use the
// smooth surrogate WC2(y) = mean(y)^2 + kappa^2 var(y), which turns every row
// constraint into one shared ellipsoid
//
//   (g_i - b_i) Q (g_i - b_i)^T <= bound^2,  Q = mu_S mu_S^T + kappa^2 Sigma Sigma^T.
//
// Solver: ADMM with splitting B = Z.
//   B-update: row-wise Euclidean projection onto the ellipsoid — one shared
//             symmetric eigendecomposition of Q, then a secular-equation
//             Newton solve per row (all rows batched through two GEMMs).
//   Z-update: column-wise prox of the l-inf norm (Moreau identity via
//             projection onto the l1 ball).
// After ADMM, the column support is extracted and B is re-fit by constrained
// least squares on that support (one Cholesky of Q_SS shared by all rows),
// greedily growing the support if any row would violate its bound.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace repro::core {

struct GroupSparseResult {
  linalg::Matrix b;                   // r1 x nS, refit on the selected support
  std::vector<int> selected_segments; // ascending segment ids
  linalg::Vector row_wc;              // achieved WC surrogate per row (ps)
  int iterations = 0;
  bool converged = false;
};

// The shared worst-case quadratic form Q = mu mu^T + kappa^2 Sigma Sigma^T
// and its eigendecomposition.  Building it costs O(nS^2 m + nS^3); it does
// not depend on the bound, so callers sweeping eps' should build it once.
struct SegmentQuadratic {
  linalg::Matrix q;  // nS x nS, PSD
  linalg::Vector d;  // eigenvalues, ascending, clamped >= 0
  linalg::Matrix v;  // eigenvectors (columns), Q = V diag(d) V^T
};
SegmentQuadratic build_segment_quadratic(const linalg::Matrix& sigma,
                                         const linalg::Vector& mu_s,
                                         double kappa);

// g_r1: r1 x nS incidence rows of the exactly-selected paths; quad: the
// form of build_segment_quadratic (its kappa applies); bound = eps' * Tcons
// (ps).  The ADMM stops after max_iterations even if it has not converged;
// the refit then restores feasibility, so a low cap trades a larger support
// for time.
GroupSparseResult select_segments(const linalg::Matrix& g_r1,
                                  const SegmentQuadratic& quad, double bound,
                                  int max_iterations = 60);

// Exposed for testing: Euclidean projection of v onto the l1 ball of the
// given radius (Duchi et al. linear-time algorithm, here O(n log n)).
linalg::Vector project_l1_ball(linalg::Vector v, double radius);

}  // namespace repro::core
