#include "linalg/cholesky.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "linalg/simd/kernels.h"
#include "util/contracts.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace repro::linalg {

namespace {

// L y = b and L^T x = y, overwriting the contiguous n-vector b.  Every
// triangular solve goes through these two loops, so a right-hand side gets
// the same bits whether it is solved alone or as one row of a transposed
// block (the loop body, including how the compiler contracts it, is shared).
void forward_in_place(const Matrix& l, double* b) {
  const std::size_t n = l.rows();
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    const double* li = l.row(i).data();
    for (std::size_t j = 0; j < i; ++j) s -= li[j] * b[j];
    b[i] = s / li[i];
  }
}

void backward_in_place(const Matrix& l, double* b) {
  const std::size_t n = l.rows();
  for (std::size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) s -= l(j, ii) * b[j];
    b[ii] = s / l(ii, ii);
  }
}

// Runs `sweep` over every column of B as a contiguous row of B^T: two copies
// for the whole block instead of three allocations per column, and the same
// bits as sweeping b.column(j) on its own.
template <class Sweep>
Matrix sweep_columns(const Matrix& b, Sweep sweep) {
  Matrix xt = b.transposed();
  for (std::size_t j = 0; j < xt.rows(); ++j) sweep(xt.row(j).data());
  return xt.transposed();
}

}  // namespace

CholFactors chol_factor(Matrix s) {
  REPRO_CHECK_DIM(s.rows(), s.cols(), "chol_factor: square input");
  if (s.rows() != s.cols()) throw std::invalid_argument("chol: not square");
  const std::size_t n = s.rows();
  CholFactors f;
  // SIMD tiers compute the length-j row dots through the tier's dot kernel;
  // the scalar tier keeps the legacy single-accumulator loops verbatim so
  // REPRO_KERNEL=scalar reproduces the pre-SIMD factor bit for bit.  The
  // positivity check runs on whichever value the active tier produced, so a
  // borderline-indefinite matrix may flip ok across tiers — callers already
  // treat that as the jitter path (see chol_factor_regularized).
  const simd::KernelOps& t = simd::ops();
  const bool use_simd = t.tier != simd::Tier::kScalar && n >= 32;
  for (std::size_t j = 0; j < n; ++j) {
    double d = s(j, j);
    const double* lj = &s(j, 0);
    if (use_simd) {
      d -= t.dot(j, lj, lj);
    } else {
      for (std::size_t k = 0; k < j; ++k) d -= lj[k] * lj[k];
    }
    if (!(d > 0.0) || !std::isfinite(d)) {
      f.ok = false;
      return f;
    }
    const double ljj = std::sqrt(d);
    s(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = s(i, j);
      const double* li = &s(i, 0);
      if (use_simd) {
        v -= t.dot(j, li, lj);
      } else {
        for (std::size_t k = 0; k < j; ++k) v -= li[k] * lj[k];
      }
      s(i, j) = v / ljj;
    }
  }
  // Zero the strict upper triangle so the factor is clean for callers.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) s(i, j) = 0.0;
  }
  f.l = std::move(s);
  f.ok = true;
  return f;
}

RegularizedChol chol_factor_regularized(const Matrix& s,
                                        double initial_jitter) {
  REPRO_CHECK_DIM(s.rows(), s.cols(), "chol_factor_regularized: square");
  REPRO_CHECK(initial_jitter >= 0.0,
              "chol_factor_regularized: jitter must be non-negative");
  RegularizedChol out;
  double scale = s.max_abs();
  if (scale == 0.0 || !std::isfinite(scale)) scale = 1.0;
  double jitter = initial_jitter;
  for (int attempt = 0; attempt < 40; ++attempt) {
    Matrix sj = s;
    if (jitter > 0.0) {
      for (std::size_t i = 0; i < sj.rows(); ++i) sj(i, i) += jitter;
    }
    out.factors = chol_factor(std::move(sj));
    if (out.factors.ok) {
      out.jitter = jitter;
      if (jitter > initial_jitter) {
        util::telemetry::count("linalg.chol.jitter_fallbacks");
      }
      return out;
    }
    jitter = (jitter == 0.0) ? scale * 1e-14 : jitter * 10.0;
    if (jitter > scale) break;
  }
  throw std::runtime_error("chol_factor_regularized: matrix far from PSD");
}

Vector chol_forward(const CholFactors& f, Vector b) {
  REPRO_CHECK(f.ok, "chol_forward: factorization must have succeeded");
  REPRO_CHECK_DIM(b.size(), f.l.rows(), "chol_forward: rhs length");
  if (b.size() != f.l.rows()) throw std::invalid_argument("chol_forward size");
  forward_in_place(f.l, b.data());
  return b;
}

Vector chol_backward(const CholFactors& f, Vector b) {
  REPRO_CHECK(f.ok, "chol_backward: factorization must have succeeded");
  REPRO_CHECK_DIM(b.size(), f.l.rows(), "chol_backward: rhs length");
  if (b.size() != f.l.rows()) throw std::invalid_argument("chol_backward size");
  backward_in_place(f.l, b.data());
  return b;
}

// Squareness is validated unconditionally below in every build; a contract
// would duplicate it.
// repro-lint: allow(contracts)
PivotedChol pivoted_cholesky(const Matrix& s, double rel_tol) {
  if (s.rows() != s.cols()) {
    throw std::invalid_argument("pivoted_cholesky: not square");
  }
  const util::telemetry::Span span("linalg.pivoted_cholesky");
  const std::size_t n = s.rows();
  PivotedChol out;
  out.perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) out.perm[i] = static_cast<int>(i);

  // Running diagonal of the Schur complement and the factor rows built so
  // far (in pivot order).  Column k of L is formed against the original
  // matrix, updating only the diagonal eagerly (outer-product-free variant:
  // l(i,k) = (S(pi,pk) - sum_j l(i,j) l(k,j)) / l(k,k)).
  Vector diag(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = s(i, i);
  double max_diag0 = 0.0;
  for (double d : diag) max_diag0 = std::max(max_diag0, d);
  const double tol =
      (rel_tol >= 0.0 ? rel_tol
                      : static_cast<double>(n) *
                            std::numeric_limits<double>::epsilon() * 16.0) *
      (max_diag0 > 0.0 ? max_diag0 : 1.0);

  // Row i of L lives in l.row(i)[0..k); the storage is n x cap and doubles
  // when k reaches cap, so it stays O(n * rank) when rank << n.
  std::size_t cap = std::min<std::size_t>(n, 64);
  Matrix l(n, cap);
  const std::size_t nt = util::thread_count();
  std::size_t k = 0;
  for (; k < n; ++k) {
    // Pivot: largest remaining Schur diagonal.
    std::size_t piv = k;
    for (std::size_t i = k + 1; i < n; ++i) {
      if (diag[i] > diag[piv]) piv = i;
    }
    if (diag[piv] <= tol) break;
    if (k == cap) {
      cap = std::min(n, 2 * cap);
      Matrix grown(n, cap);
      for (std::size_t i = 0; i < n; ++i) {
        std::copy_n(l.row(i).data(), k, grown.row(i).data());
      }
      l = std::move(grown);
    }
    if (piv != k) {
      std::swap(out.perm[piv], out.perm[k]);
      std::swap(diag[piv], diag[k]);
      l.swap_rows(piv, k);
    }
    const double lkk = std::sqrt(diag[k]);
    l(k, k) = lkk;
    const auto pk = static_cast<std::size_t>(out.perm[k]);
    // Rows below the pivot are independent: each reads its own row of L and
    // the pivot row and writes only its own entries, with the same serial
    // dot as a single-threaded run, so results are thread-count invariant.
    // Eight rows run together, so eight of those serial chains are in
    // flight at once; each row's chain is the single-row loop's, term for
    // term, and the remainder rows run that loop itself.
    const auto finish_row = [&](std::size_t i, double v) {
      const double lik = v / lkk;
      l(i, k) = lik;
      diag[i] -= lik * lik;
    };
    const auto update_rows = [&](std::size_t ib, std::size_t ie) {
      const double* lk = l.row(k).data();
      std::size_t i = ib;
      for (; i + 8 <= ie; i += 8) {
        const double* l0 = l.row(i).data();
        const double* l1 = l.row(i + 1).data();
        const double* l2 = l.row(i + 2).data();
        const double* l3 = l.row(i + 3).data();
        const double* l4 = l.row(i + 4).data();
        const double* l5 = l.row(i + 5).data();
        const double* l6 = l.row(i + 6).data();
        const double* l7 = l.row(i + 7).data();
        const auto orig = [&](std::size_t r) {
          return s(static_cast<std::size_t>(out.perm[i + r]), pk);
        };
        double v0 = orig(0), v1 = orig(1), v2 = orig(2), v3 = orig(3);
        double v4 = orig(4), v5 = orig(5), v6 = orig(6), v7 = orig(7);
        for (std::size_t j = 0; j < k; ++j) {
          v0 -= l0[j] * lk[j];
          v1 -= l1[j] * lk[j];
          v2 -= l2[j] * lk[j];
          v3 -= l3[j] * lk[j];
          v4 -= l4[j] * lk[j];
          v5 -= l5[j] * lk[j];
          v6 -= l6[j] * lk[j];
          v7 -= l7[j] * lk[j];
        }
        finish_row(i, v0);
        finish_row(i + 1, v1);
        finish_row(i + 2, v2);
        finish_row(i + 3, v3);
        finish_row(i + 4, v4);
        finish_row(i + 5, v5);
        finish_row(i + 6, v6);
        finish_row(i + 7, v7);
      }
      for (; i < ie; ++i) {
        const auto pi = static_cast<std::size_t>(out.perm[i]);
        double v = s(pi, pk);
        const double* li = l.row(i).data();
        for (std::size_t j = 0; j < k; ++j) v -= li[j] * lk[j];
        finish_row(i, v);
      }
    };
    const std::size_t rest = n - k - 1;
    if (nt > 1 && rest * (k + 1) >= 65'536) {
      util::parallel_for(k + 1, n, std::max<std::size_t>(64, rest / (4 * nt)),
                         update_rows);
    } else {
      update_rows(k + 1, n);
    }
  }
  out.rank = k;
  out.l = l.left_cols(k);
  return out;
}

Vector chol_solve(const CholFactors& f, Vector b) {
  REPRO_CHECK_DIM(b.size(), f.l.rows(), "chol_solve: rhs length");
  if (!f.ok) throw std::runtime_error("chol_solve: factorization failed");
  return chol_backward(f, chol_forward(f, std::move(b)));
}

Matrix chol_solve(const CholFactors& f, const Matrix& b) {
  REPRO_CHECK_DIM(b.rows(), f.l.rows(), "chol_solve: rhs rows");
  if (!f.ok) throw std::runtime_error("chol_solve: factorization failed");
  return sweep_columns(b, [&f](double* x) {
    forward_in_place(f.l, x);
    backward_in_place(f.l, x);
  });
}

Matrix chol_forward(const CholFactors& f, const Matrix& b) {
  REPRO_CHECK_DIM(b.rows(), f.l.rows(), "chol_forward: rhs rows");
  if (!f.ok) throw std::runtime_error("chol_forward: factorization failed");
  return sweep_columns(b, [&f](double* x) { forward_in_place(f.l, x); });
}

Matrix chol_backward(const CholFactors& f, const Matrix& b) {
  REPRO_CHECK_DIM(b.rows(), f.l.rows(), "chol_backward: rhs rows");
  if (!f.ok) throw std::runtime_error("chol_backward: factorization failed");
  return sweep_columns(b, [&f](double* x) { backward_in_place(f.l, x); });
}

}  // namespace repro::linalg
