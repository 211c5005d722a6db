// QR factorization with column pivoting (Businger–Golub), the subset-selection
// engine behind the paper's Algorithm 2: QR-with-column-pivoting on U_r^T
// ranks the columns (= candidate paths) by how much new "direction" each adds,
// and the first r pivot columns identify the representative rows of A.
//
// Storage is candidate-major: row j of the input is candidate j, i.e. column
// j of the matrix being factored.  Algorithm 2's candidates are the rows of
// U_r, so callers pass them as they hold them.
//
// Only the pivot order and |R(k,k)| are computed, by Gram-Schmidt on the
// shared ResidualBasis (linalg/residual_basis.h): d_j starts at ||c_j||^2
// and is lowered by (q_k . c_j)^2 for each new basis row q_k; the pivot is
// the unpicked candidate of largest d_j, ties to the lowest index; |R(k,k)|
// is the norm of the pivot's twice-orthogonalized remainder.  This is the
// streamed path selection's arithmetic, so both pick the same pivots on the
// same rows.  The dots run on the dispatched SIMD kernel, so the bits follow
// the kernel tier; they do not depend on the thread count.
#pragma once

#include <vector>

#include "linalg/matrix.h"

namespace repro::linalg {

struct QrcpResult {
  std::vector<int> perm;    // pivot k selected candidate perm[k]; the
                            // unpicked candidates follow in index order
  std::vector<double> rdiag_abs;  // |R(k,k)| in pivot order (non-increasing-ish)
  std::size_t dim = 0;      // max(candidates, candidate length)
};

// Pivots A = c^T, choosing at each step the remaining candidate (row of c)
// of largest residual norm.  `max_steps` bounds the number of pivot steps
// (0 = min(rows, cols)); Algorithm 2 only needs the first r pivots, so
// stopping early saves work.  The residual updates of each step are split
// over the thread pool once they are large enough.
QrcpResult qr_colpivot(const Matrix& c, std::size_t max_steps = 0);

// Numerical rank from a pivoted QR: number of |R(k,k)| above
// tol = dim * eps * |R(0,0)| (or an explicit absolute tolerance).
std::size_t qrcp_rank(const QrcpResult& f, double abs_tol = -1.0);

}  // namespace repro::linalg
