#include "linalg/qr_colpivot.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/contracts.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace repro::linalg {
namespace {

// s + sum_i x[i] * y[i], accumulated strictly in index order, one (possibly
// FMA-contracted) multiply-add per element.  Kept out of the vectorizer: on
// contiguous data GCC turns this in-order reduction into a fold-left vector
// reduction, a vector multiply followed by ordered adds, which is no longer
// contracted into FMA under -march=native.  The scalar chain is exactly the
// arithmetic of the column-major loop this factorization was first written
// with, so the pivot sequence and every bit of the factor stay the same.
#if defined(__clang__)
double dot_in_order(double s, const double* x, const double* y,
                    std::size_t n) {
#pragma clang loop vectorize(disable) interleave(disable)
  for (std::size_t i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}
#else
__attribute__((noinline, optimize("no-tree-vectorize"))) double
dot_in_order(double s, const double* x, const double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}
#endif

}  // namespace

QrcpResult qr_colpivot(Matrix c, std::size_t max_steps) {
  REPRO_CHECK(!c.empty() || max_steps == 0,
              "qr_colpivot: empty input admits no pivot steps");
  const util::telemetry::Span span("linalg.qr_colpivot");
  util::telemetry::count("linalg.qr_colpivot.calls");
  // n candidates (rows of c) of length m: the factored matrix is A = c^T.
  const std::size_t n = c.rows(), m = c.cols();
  const std::size_t kmax0 = std::min(m, n);
  const std::size_t kmax =
      (max_steps == 0) ? kmax0 : std::min(kmax0, max_steps);

  QrcpResult out;
  out.perm.resize(n);
  std::iota(out.perm.begin(), out.perm.end(), 0);
  out.tau.assign(kmax, 0.0);
  out.rdiag_abs.assign(kmax, 0.0);

  // Running squared norms of the candidates' trailing parts, updated after
  // each reflector (with periodic recomputation for numerical safety, per
  // LINPACK's downdating recipe).
  Vector colnorm2(n), colnorm2_ref(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double* x = c.row(j).data();
    colnorm2[j] = colnorm2_ref[j] = dot_in_order(0.0, x, x, m);
  }

  const std::size_t nt = util::thread_count();
  for (std::size_t k = 0; k < kmax; ++k) {
    // Pivot: remaining candidate with the largest updated norm (the first
    // one on ties).
    std::size_t piv = k;
    for (std::size_t j = k + 1; j < n; ++j) {
      if (colnorm2[j] > colnorm2[piv]) piv = j;
    }
    if (piv != k) {
      c.swap_rows(piv, k);
      std::swap(colnorm2[piv], colnorm2[k]);
      std::swap(colnorm2_ref[piv], colnorm2_ref[k]);
      std::swap(out.perm[piv], out.perm[k]);
    }

    // Householder reflector on candidate k (entries k..m-1).
    double* v = c.row(k).data();
    double normx = 0.0;
    for (std::size_t i = k; i < m; ++i) normx = std::hypot(normx, v[i]);
    if (normx == 0.0) {
      out.tau[k] = 0.0;
      out.rdiag_abs[k] = 0.0;
      continue;
    }
    const double alpha = v[k];
    const double beta = (alpha >= 0.0) ? -normx : normx;
    const double v0 = alpha - beta;
    const double tau = -v0 / beta;
    const double inv_v0 = 1.0 / v0;
    for (std::size_t i = k + 1; i < m; ++i) v[i] *= inv_v0;
    v[k] = beta;
    out.tau[k] = tau;
    out.rdiag_abs[k] = std::abs(beta);

    // Apply to the trailing candidates and downdate their norms.  Each
    // candidate reads the reflector and writes only its own row and norms,
    // with the same serial arithmetic at any partition, so the result is
    // thread-count invariant.
    const std::size_t len = m - k - 1;
    const auto update = [&](std::size_t jb, std::size_t je) {
      for (std::size_t j = jb; j < je; ++j) {
        double* x = c.row(j).data();
        double s = dot_in_order(x[k], v + k + 1, x + k + 1, len);
        s *= tau;
        x[k] -= s;
        for (std::size_t i = k + 1; i < m; ++i) x[i] -= s * v[i];

        // Norm downdate: ||x||^2 -= R(k,j)^2, with refresh when
        // cancellation makes the running value unreliable.
        const double rkj = x[k];
        double updated = colnorm2[j] - rkj * rkj;
        if (updated < 0.05 * colnorm2_ref[j] || updated <= 0.0) {
          updated = dot_in_order(0.0, x + k + 1, x + k + 1, len);
          colnorm2_ref[j] = updated;
        }
        colnorm2[j] = updated;
      }
    };
    // Below this much work per step the fork/join costs more than it saves.
    const std::size_t rest = n - k - 1;
    if (nt > 1 && rest * (m - k) >= 65'536) {
      util::parallel_for(k + 1, n, std::max<std::size_t>(64, rest / (4 * nt)),
                         update);
    } else {
      update(k + 1, n);
    }
  }
  out.qr = std::move(c);
  return out;
}

std::size_t qrcp_rank(const QrcpResult& f, double abs_tol) {
  if (f.rdiag_abs.empty()) return 0;
  double tol = abs_tol;
  if (tol < 0.0) {
    const double dim = static_cast<double>(std::max(f.qr.rows(), f.qr.cols()));
    tol = dim * std::numeric_limits<double>::epsilon() * f.rdiag_abs.front();
  }
  std::size_t r = 0;
  for (double d : f.rdiag_abs) {
    if (d > tol) ++r;
    else break;  // rdiag is (approximately) non-increasing under pivoting
  }
  return r;
}

}  // namespace repro::linalg
