#include "linalg/randomized_eig.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "linalg/eigen_sym.h"
#include "linalg/gemm.h"
#include "linalg/qr.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace repro::linalg {
namespace {

constexpr std::size_t kOversample = 16;
constexpr int kPowerIterations = 2;
constexpr std::uint64_t kSeed = 0xe16;

Matrix gaussian_matrix(std::size_t r, std::size_t c, util::Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.normal();
  }
  return m;
}

}  // namespace

// Squareness is validated unconditionally below in every build; a contract
// would duplicate it.
// repro-lint: allow(contracts)
RandomizedEigResult randomized_eig_psd(const Matrix& w, std::size_t k) {
  if (w.rows() != w.cols()) {
    throw std::invalid_argument("randomized_eig_psd: not square");
  }
  const std::size_t n = w.rows();
  util::Rng rng(kSeed);
  const std::size_t sketch = std::min(n, k + kOversample);

  // Range finder with power iterations (re-orthonormalized each pass for
  // numerical stability of small eigenvalues).
  Matrix q = qr_thin_q(qr_factor(multiply(w, gaussian_matrix(n, sketch, rng))));
  for (int p = 0; p < kPowerIterations; ++p) {
    q = qr_thin_q(qr_factor(multiply(w, q)));
  }

  // Rayleigh-Ritz on the captured subspace.
  const Matrix wq = multiply(w, q);     // n x sketch
  const Matrix t = multiply_at(q, wq);  // sketch x sketch, symmetric
  const EigenSymResult small = eigen_sym(t);
  if (!small.converged) {
    throw std::runtime_error("randomized_eig_psd: small eig failed");
  }

  RandomizedEigResult out;
  out.values.resize(sketch);
  Matrix v_desc(sketch, sketch);
  for (std::size_t c = 0; c < sketch; ++c) {
    const std::size_t src = sketch - 1 - c;  // ascending -> descending
    out.values[c] = std::max(small.values[src], 0.0);
    for (std::size_t i = 0; i < sketch; ++i) {
      v_desc(i, c) = small.vectors(i, src);
    }
  }
  out.vectors = multiply(q, v_desc);  // n x sketch, orthonormal
  return out;
}

}  // namespace repro::linalg
