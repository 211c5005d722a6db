// Symmetric eigendecomposition, S = V diag(lambda) V^T.
//
// Householder tridiagonalization (tred2) followed by implicit-shift QL with
// eigenvector accumulation (tql2) — the classic EISPACK pair.  Used for the
// Rayleigh–Ritz step of the randomized eigensolver (randomized_eig.h) and by
// the streaming calibrator.
#pragma once

#include "linalg/matrix.h"

namespace repro::linalg {

struct EigenSymResult {
  Vector values;   // eigenvalues, ascending
  Matrix vectors;  // columns are the corresponding orthonormal eigenvectors
  bool converged = true;
};

EigenSymResult eigen_sym(Matrix s);

}  // namespace repro::linalg
