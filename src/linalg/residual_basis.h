// The residual-pivot primitive: an orthonormal basis of picked candidates,
// grown by two-pass modified Gram-Schmidt, and the fold that lowers a
// candidate's squared residual by each basis row in basis order.  QR with
// column pivoting (qr_colpivot) and the streamed path selection
// (core::select_paths_sharded) both pick "the candidate of largest
// residual" with exactly this arithmetic, so on the same rows they pick the
// same pivots, bit for bit.  Every dot goes through the dispatched SIMD
// kernel, so the bits follow the kernel tier.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "linalg/simd/kernels.h"

namespace repro::linalg {

class ResidualBasis {
 public:
  // Rows of length m, with room for `capacity` rows reserved up front.
  ResidualBasis(std::size_t m, std::size_t capacity)
      : m_(m), ops_(simd::ops()) {
    q_.reserve(capacity * m);
  }

  std::size_t size() const { return size_; }
  const double* row(std::size_t k) const { return q_.data() + k * m_; }
  double norm_sq(const double* a) const { return ops_.dot(m_, a, a); }

  // d -= (q_k . a)^2 for k in [from, to).  Every residual update goes
  // through here in basis order, so a candidate's residual has the same
  // bits however its folds were split.
  void fold(std::size_t from, std::size_t to, const double* a,
            double& d) const {
    for (std::size_t k = from; k < to; ++k) {
      const double c = ops_.dot(m_, row(k), a);
      d -= c * c;
    }
  }

  // Orthogonalizes `a` against the basis twice and returns the norm of the
  // remainder, |R_kk| of the pivot.  A nonzero remainder is appended,
  // normalized; a zero one adds no row.
  double add(std::span<const double> a) {
    q_.insert(q_.end(), a.begin(), a.end());
    double* v = q_.data() + size_ * m_;
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t k = 0; k < size_; ++k) {
        ops_.axpy(m_, -ops_.dot(m_, row(k), v), row(k), v);
      }
    }
    const double norm = std::sqrt(norm_sq(v));
    if (norm == 0.0) {
      q_.resize(size_ * m_);
      return 0.0;
    }
    const double inv = 1.0 / norm;
    for (std::size_t j = 0; j < m_; ++j) v[j] *= inv;
    ++size_;
    return norm;
  }

 private:
  std::size_t m_;
  std::size_t size_ = 0;
  const simd::KernelOps& ops_;
  std::vector<double> q_;
};

}  // namespace repro::linalg
