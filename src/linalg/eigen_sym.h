// Symmetric eigendecomposition, S = V diag(lambda) V^T.
//
// Householder tridiagonalization (tred2) followed by implicit-shift QL with
// eigenvector accumulation (tql2) — the classic EISPACK pair.  Used for the
// Rayleigh–Ritz step of the randomized eigensolver (randomized_eig.h) and by
// the ADMM segment selector: the shared worst-case quadratic form
// Q = mu mu^T + kappa^2 Sigma Sigma^T is eigendecomposed once so that each
// row projection onto the ellipsoid {w : w^T Q w <= t^2} reduces to a 1-D
// secular equation in the eigenbasis.
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
