// Cholesky factorization for symmetric positive (semi-)definite systems.
//
// The hot loop of Algorithm 1 solves S y = w with S = A_r A_r^T for hundreds
// of right-hand sides per candidate r; Cholesky is the cheapest stable
// factorization for that.  Gram matrices of rank-deficient A_r can be
// singular, so `chol_factor_regularized` adds the smallest jitter that makes
// the factorization succeed (equivalent to a ridge pseudo-inverse, which is
// what the paper's pseudo-inverse notation permits).
#pragma once

#include "linalg/matrix.h"

namespace repro::linalg {

struct CholFactors {
  Matrix l;        // lower-triangular factor, S = L L^T
  bool ok = false;  // factorization succeeded (matrix numerically SPD)
};

// Plain factorization; ok=false if a non-positive pivot is met.
CholFactors chol_factor(Matrix s);

// Factorize S + jitter*I, growing jitter from `initial_jitter` by 10x until
// success.  Records the jitter used; throws std::runtime_error when no
// jitter up to max_abs(S) makes the factorization succeed (e.g. NaN/Inf
// entries or a matrix far from PSD).
struct RegularizedChol {
  CholFactors factors;
  double jitter = 0.0;
};
RegularizedChol chol_factor_regularized(const Matrix& s,
                                        double initial_jitter = 0.0);

// The Matrix forms solve every column of B and give each column the same
// bits as the Vector form applied to it alone.
Vector chol_solve(const CholFactors& f, Vector b);
Matrix chol_solve(const CholFactors& f, const Matrix& b);

// Solve L y = b (forward) and L^T x = y (backward) separately; used by the
// streaming calibrator, which needs L^{-1} B as well as S^{-1} B.  chol_backward(f, chol_forward(f, b)) has
// the bits of chol_solve(f, b).
Vector chol_forward(const CholFactors& f, Vector b);
Vector chol_backward(const CholFactors& f, Vector b);
Matrix chol_forward(const CholFactors& f, const Matrix& b);
Matrix chol_backward(const CholFactors& f, const Matrix& b);

// Pivoted (rank-revealing) Cholesky for PSD matrices: P^T S P = L L^T with
// diagonal pivoting.  Stops when the largest remaining diagonal falls below
// tol (relative to the largest initial diagonal), revealing the numerical
// rank in O(n * rank^2) — the cheap way to get rank(A) from the Gram matrix
// A A^T without any O(n^3) eigendecomposition.  The pivot order greedily
// maximizes residual variance, i.e. it equals the column-pivot order of a
// QR factorization of A^T.
struct PivotedChol {
  std::size_t rank = 0;
  std::vector<int> perm;  // perm[k] = original index chosen at step k
  Matrix l;               // n x rank, lower-trapezoidal in pivot order
};
PivotedChol pivoted_cholesky(const Matrix& s, double rel_tol = -1.0);

}  // namespace repro::linalg
