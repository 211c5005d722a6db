#include "linalg/qr.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "linalg/gemm.h"
#include "linalg/simd/kernels.h"
#include "util/contracts.h"
#include "util/telemetry.h"

namespace repro::linalg {
namespace {

// Panel width of the compact-WY blocking (LAPACK dgeqrf/dorgqr's nb).  The
// panel is factored column by column; everything right of it is updated by
// two GEMMs per panel.  Fixed, so the bit pattern depends only on the shape.
constexpr std::size_t kPanel = 32;

// ||x||_2: one dot on the common path, a hypot chain when the sum of
// squares would overflow or lose precision to underflow.
double norm2_robust(const simd::KernelOps& t, std::size_t n, const double* x) {
  const double ss = t.dot(n, x, x);
  constexpr double kLo = std::numeric_limits<double>::min() /
                         std::numeric_limits<double>::epsilon();
  constexpr double kHi = std::numeric_limits<double>::max() / 4.0;
  if (ss > kLo && ss < kHi) return std::sqrt(ss);
  double h = 0.0;
  for (std::size_t i = 0; i < n; ++i) h = std::hypot(h, x[i]);
  return h;
}

// One block of reflectors, column-major: column c (rows 0..rows) holds
// reflector c of the block, with v[c] = 1 implicit and the entries above
// it belonging to R.  `rows` counts from the block's first row.
struct Panel {
  std::size_t rows = 0, width = 0;
  std::vector<double> col;  // width * rows
  double* v(std::size_t c) { return col.data() + c * rows; }
};

// Copies the block whose top-left corner is (j0, j0) out of `a`.
Panel load_panel(const Matrix& a, std::size_t j0, std::size_t width) {
  Panel p;
  p.rows = a.rows() - j0;
  p.width = width;
  p.col.resize(p.rows * width);
  for (std::size_t i = 0; i < p.rows; ++i) {
    const double* ai = a.row(j0 + i).data() + j0;
    for (std::size_t c = 0; c < width; ++c) p.col[c * p.rows + i] = ai[c];
  }
  return p;
}

// Unblocked Householder QR of the panel (LAPACK dgeqr2).  Reflector c
// annihilates column c below row c: H = I - tau v v^T with v[c] = 1.
void factor_panel(Panel& p, double* tau) {
  const simd::KernelOps& t = simd::ops();
  for (std::size_t c = 0; c < p.width; ++c) {
    double* x = p.v(c) + c;
    const std::size_t len = p.rows - c;
    const double normx = norm2_robust(t, len, x);
    if (normx == 0.0) {
      tau[c] = 0.0;
      continue;
    }
    const double beta = (x[0] >= 0.0) ? -normx : normx;
    const double v0 = x[0] - beta;
    tau[c] = -v0 / beta;  // = (beta - alpha) / beta
    const double inv_v0 = 1.0 / v0;
    for (std::size_t i = 1; i < len; ++i) x[i] *= inv_v0;
    x[0] = beta;
    for (std::size_t d = c + 1; d < p.width; ++d) {
      double* y = p.v(d) + c;
      const double s = tau[c] * (y[0] + t.dot(len - 1, x + 1, y + 1));
      y[0] -= s;
      t.axpy(len - 1, -s, x + 1, y + 1);
    }
  }
}

// Reflectors j0..j0+w of a compact factorization as an explicit
// (m - j0) x w matrix V: unit diagonal, zeros above it.
Matrix reflector_block(const Matrix& qr, std::size_t j0, std::size_t w) {
  const std::size_t rows = qr.rows() - j0;
  Matrix v(rows, w);
  for (std::size_t i = 0; i < rows; ++i) {
    const double* src = qr.row(j0 + i).data() + j0;
    double* dst = v.row(i).data();
    const std::size_t below = std::min(i, w);  // columns c < i hold v_c[i]
    std::copy(src, src + below, dst);
    if (i < w) dst[i] = 1.0;
  }
  return v;
}

// Upper-triangular T with H_0 H_1 ... H_{w-1} = I - V T V^T (LAPACK dlarft,
// forward, column-wise), built from the Gram matrix V^T V.
Matrix block_reflector_t(const Matrix& v, const double* tau) {
  const std::size_t w = v.cols();
  const Matrix g = multiply_at_trailing(v, 0, 0, v);
  Matrix tm(w, w);
  for (std::size_t i = 0; i < w; ++i) {
    tm(i, i) = tau[i];
    if (tau[i] == 0.0) continue;
    // T(0:i, i) = -tau_i T(0:i, 0:i) V(:, 0:i)^T v_i.
    for (std::size_t r = 0; r < i; ++r) {
      double s = 0.0;
      for (std::size_t l = r; l < i; ++l) s += tm(r, l) * g(l, i);
      tm(r, i) = -tau[i] * s;
    }
  }
  return tm;
}

// C <- (I - V T' V^T) C on the trailing block a[j0.., c0..], where T' = T^T
// when applying Q^T (factorization) and T when applying Q (forming Q).
// Both products run in place through the dispatched GEMM:
// Y = -(C^T V) T'^T, then C += V Y^T.
void apply_block_reflector(const Matrix& v, const Matrix& tm, bool qt,
                           Matrix& a, std::size_t j0, std::size_t c0) {
  if (c0 == a.cols()) return;
  const Matrix y = multiply_at_trailing(a, j0, c0, v);  // C^T V
  const Matrix neg_t = tm * -1.0;
  const Matrix yt = qt ? multiply(y, neg_t) : multiply_bt(y, neg_t);
  add_multiply_bt_trailing(v, yt, a, j0, c0);
}

}  // namespace

// Blocked compact-WY Householder QR (Schreiber & Van Loan 1989; LAPACK
// dgeqrf): each kPanel-wide panel is factored unblocked in a contiguous
// column-major copy, and the trailing columns take the whole block of
// reflectors at once through two GEMMs.  Panel order and width are fixed,
// and the GEMMs are thread-count invariant, so the factors are too.
// repro-lint: allow(contracts) -- Householder QR exists for every shape
QrFactors qr_factor(Matrix a) {
  const util::telemetry::Span span("linalg.qr");
  const std::size_t m = a.rows(), n = a.cols();
  const std::size_t k = std::min(m, n);
  QrFactors f;
  f.tau.assign(k, 0.0);
  for (std::size_t j0 = 0; j0 < k; j0 += kPanel) {
    const std::size_t w = std::min(kPanel, k - j0);
    Panel p = load_panel(a, j0, w);
    factor_panel(p, f.tau.data() + j0);
    for (std::size_t i = 0; i < p.rows; ++i) {
      double* ai = a.row(j0 + i).data() + j0;
      for (std::size_t c = 0; c < w; ++c) ai[c] = p.col[c * p.rows + i];
    }
    if (j0 + w < n) {
      const Matrix v = reflector_block(a, j0, w);
      apply_block_reflector(v, block_reflector_t(v, f.tau.data() + j0),
                            /*qt=*/true, a, j0, j0 + w);
    }
  }
  f.qr = std::move(a);
  return f;
}

// Thin Q by backward accumulation of the same blocks (LAPACK dorgqr): start
// from the first k columns of I and apply block j to columns j.. of rows j..;
// the columns left of a block are still unit vectors there, so they are
// skipped.
Matrix qr_thin_q(const QrFactors& f) {
  const util::telemetry::Span span("linalg.qr");
  const std::size_t m = f.qr.rows();
  const std::size_t k = f.tau.size();
  Matrix q(m, k);
  for (std::size_t i = 0; i < k; ++i) q(i, i) = 1.0;
  if (k == 0) return q;
  for (std::size_t j0 = (k - 1) / kPanel * kPanel;; j0 -= kPanel) {
    const std::size_t w = std::min(kPanel, k - j0);
    const Matrix v = reflector_block(f.qr, j0, w);
    apply_block_reflector(v, block_reflector_t(v, f.tau.data() + j0),
                          /*qt=*/false, q, j0, j0);
    if (j0 == 0) break;
  }
  return q;
}

}  // namespace repro::linalg
