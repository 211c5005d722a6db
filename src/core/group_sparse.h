// Segment selection (paper Eqn (10)): choose the representative segments
// S_r1 whose delays model the exactly-selected paths' delays within a bound,
//
//   min |S|   s.t.   WC(d_i - b_i d_S) <= bound   for every row i,
//
// where d_i = g_i d is path i's delay over its segments (g_i: its row of the
// incidence matrix G_r1) and b_i d_S is the best linear model of it from the
// chosen segments' delays d_S.
//
// Worst case: following the paper's note that the constraint "is quadratic
// with respect to B after taking square operation on both sides", we use the
// smooth surrogate WC2(y) = mean(y)^2 + kappa^2 var(y), which turns every row
// constraint into one shared quadratic form
//
//   Q = mu mu^T + kappa^2 Sigma Sigma^T,
//
// and the least achievable WC2 of row i on a support S is g_i C g_i^T, with
// C = Q_NN - Q_NS Q_SS^-1 Q_SN the Schur complement of Q on S (zero-padded).
//
// Solver: greedy conditional-variance pivoting, an l0 heuristic in place of
// the paper's l1/l-inf convex relaxation (the segment analogue of the greedy
// path pivoting of Algorithm 2, and of the sensor-selection greedy of
// Krause, Singh & Guestrin 2008).  It is the pivoted-Cholesky engine of
// linalg/cholesky.h run on Q with a coverage pivot rule: each step adds the
// segment j (C_jj > 0, not yet chosen) maximizing
//
//   sum over rows with v_i > t^2 of  min(v_i - t^2, T_ij^2 / C_jj),
//
// t = bound, first index on a tie, where T = G_r1 C and v_i = g_i C g_i^T.
// C itself is never formed: C_jj is the engine's residual, and the engine's
// column l for pick j gives C(:, j) = l l_jj, so the updates are
// T -= (T(:, j) / l_jj) l^T and v_i -= T_ij^2 / C_jj.  It stops once every
// v_i <= t^2, or when no candidate is left (a row whose whole support is
// chosen has zero error).
#pragma once

#include <vector>

#include "linalg/matrix.h"

namespace repro::core {

struct GroupSparseResult {
  std::vector<int> selected_segments;  // ascending segment ids
  linalg::Vector row_wc;  // achieved WC surrogate per row, sqrt(v_i) (ps)
};

// The shared worst-case quadratic form Q = mu mu^T + kappa^2 Sigma Sigma^T
// (nS x nS, PSD).  It does not depend on the bound, so callers sweeping eps'
// build it once.
linalg::Matrix build_segment_quadratic(const linalg::Matrix& sigma,
                                       const linalg::Vector& mu_s,
                                       double kappa);

// g_r1: r1 x nS incidence rows of the exactly-selected paths; q: the form of
// build_segment_quadratic (its kappa applies); bound = eps' * Tcons (ps).
// Every row_wc[i] <= bound unless the candidates ran out first.
GroupSparseResult select_segments(const linalg::Matrix& g_r1,
                                  const linalg::Matrix& q, double bound);

}  // namespace repro::core
