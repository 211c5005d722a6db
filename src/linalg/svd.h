// Thin singular value decomposition, A = U diag(s) V^T.
//
// Golub–Reinsch: Householder bidiagonalization followed by implicit-shift QR
// on the bidiagonal, accumulating U and V.  It computes the paper's Fig. 2
// spectrum and serves as the independent reference in tests; Algorithm 2
// reads U_r and rank(A) off the Gram matrix instead (core/subset_select.h).
// It must be robust for matrices up to a few thousand rows/columns with
// widely spread singular values.
#pragma once

#include "linalg/matrix.h"

namespace repro::linalg {

struct SvdResult {
  Matrix u;          // m x k, orthonormal columns (k = min(m, n))
  Vector s;          // k singular values, sorted non-increasing, >= 0
  Matrix v;          // n x k, orthonormal columns
  bool converged = true;
};

// Computes the thin SVD.  Matrices with rows < cols are handled by
// transposition.  `want_uv=false` skips accumulating the singular vectors
// (used when only singular values / rank are needed, e.g. Figure 2).
SvdResult svd(Matrix a, bool want_uv = true);

// Numerical rank: number of singular values above
// tol = max(m, n) * eps * s[0] (or rel_tol * s[0] if rel_tol >= 0).
std::size_t svd_rank(const SvdResult& f, std::size_t m, std::size_t n,
                     double rel_tol = -1.0);

// Reconstruct U diag(s) V^T (test / diagnostics helper).
Matrix svd_reconstruct(const SvdResult& f);

}  // namespace repro::linalg
