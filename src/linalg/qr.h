// Blocked (compact-WY) Householder QR factorization and its thin Q.
//
// Compact (LAPACK-style) storage: the factor matrix holds R in its upper
// triangle and the Householder vectors below the diagonal; tau holds the
// reflector scalings.
#pragma once

#include "linalg/matrix.h"

namespace repro::linalg {

struct QrFactors {
  Matrix qr;     // m x n compact factorization, m >= n not required
  Vector tau;    // min(m, n) reflector coefficients
};

QrFactors qr_factor(Matrix a);

// Extract the thin Q (m x min(m,n)) explicitly; R is the upper triangle of
// the leading min(m,n) rows of f.qr.
Matrix qr_thin_q(const QrFactors& f);

}  // namespace repro::linalg
