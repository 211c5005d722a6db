// Randomized eigendecomposition for PSD matrices (Halko/Martinsson/Tropp
// style randomized range finder + Rayleigh–Ritz).
//
// The selection pipeline needs the dominant eigenpairs of the path Gram
// matrix W = A A^T (U columns = left singular vectors of A).  For n ~ 2000
// the dense tred2/tql2 pair costs minutes; the randomized method captures
// the leading k pairs in a few threaded GEMMs:
//
//   Y = W Omega;  Q = orth(Y);  [power iterations: Q = orth(W Q)]
//   T = Q^T W Q;  T = V L V^T;  U = Q V.
//
// One pass with a fixed sketch of k + 16 columns (capped at n), two power
// iterations and a fixed seed, so the result depends only on (W, k) and is
// bit-identical across thread counts.  The caller knows how many pairs it
// needs: the selector asks for the r of Algorithm 2, or rank(A) for the
// whole spectrum.
#pragma once

#include <cstddef>

#include "linalg/matrix.h"

namespace repro::linalg {

struct RandomizedEigResult {
  Vector values;   // descending, clamped >= 0; size = min(n, k + 16)
  Matrix vectors;  // n x values.size(), orthonormal columns
};

RandomizedEigResult randomized_eig_psd(const Matrix& w, std::size_t k);

}  // namespace repro::linalg
