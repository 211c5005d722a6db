// QR factorization with column pivoting (Businger–Golub), the subset-selection
// engine behind the paper's Algorithm 2: QR-with-column-pivoting on U_r^T
// ranks the columns (= candidate paths) by how much new "direction" each adds,
// and the first r pivot columns identify the representative rows of A.
//
// Storage is candidate-major: row j of the input is candidate j, i.e. column
// j of the matrix being factored.  Algorithm 2's candidates are the rows of
// U_r, so callers pass them as they hold them, and every inner loop of the
// factorization runs along a contiguous row.
#pragma once

#include "linalg/matrix.h"

namespace repro::linalg {

struct QrcpResult {
  // Compact Householder factorization of A P, candidate-major: row k holds
  // the k-th pivot candidate after reduction.  Its first min(k, steps)
  // entries are column k of R above the diagonal; for k < steps, entry k is
  // R(k,k) and the entries after it are the tail of Householder vector k
  // (leading 1 implied).  Rows past the last step keep their unreduced
  // remainder from entry `steps` on.  This is the transpose of the
  // column-major LAPACK layout.
  Matrix qr;
  Vector tau;               // reflector coefficients
  std::vector<int> perm;    // pivot k selected candidate perm[k]
  std::vector<double> rdiag_abs;  // |R(k,k)| in pivot order (non-increasing-ish)
};

// Factorize A P = Q R for A = c^T, choosing at each step the remaining
// candidate (row of c) of largest updated 2-norm.  `max_steps` bounds the
// number of pivot steps (0 = full); Algorithm 2 only needs the first r
// pivots, so stopping early saves work.  The trailing update of each step is
// split over the thread pool once it is large enough; results are
// bit-identical at any thread count.
QrcpResult qr_colpivot(Matrix c, std::size_t max_steps = 0);

// Numerical rank from a pivoted QR: number of |R(k,k)| above
// tol = max(m,n) * eps * |R(0,0)| (or an explicit absolute tolerance).
std::size_t qrcp_rank(const QrcpResult& f, double abs_tol = -1.0);

}  // namespace repro::linalg
