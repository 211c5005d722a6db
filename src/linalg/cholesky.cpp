#include "linalg/cholesky.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
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
CholeskyPivots::CholeskyPivots(const Matrix& s)
    : s_(s),
      residual_(s.rows()),
      l_(s.rows(), std::min<std::size_t>(s.rows(), 64)),
      col_(s.rows()) {
  if (s.rows() != s.cols()) {
    throw std::invalid_argument("CholeskyPivots: not square");
  }
  for (std::size_t i = 0; i < s.rows(); ++i) residual_[i] = s(i, i);
  rest_.resize(s.rows());
  std::iota(rest_.begin(), rest_.end(), std::size_t{0});
}

const Vector& CholeskyPivots::pivot(std::size_t p) {
  const auto taken = std::find(rest_.begin(), rest_.end(), p);
  REPRO_CHECK(taken != rest_.end(), "CholeskyPivots::pivot: row taken");
  const std::size_t k = s_.rows() - rest_.size();  // pivots taken so far
  if (k == l_.cols()) {
    Matrix grown(l_.rows(), std::min(l_.rows(), 2 * k));
    for (std::size_t i = 0; i < l_.rows(); ++i) {
      std::copy_n(l_.row(i).data(), k, grown.row(i).data());
    }
    l_ = std::move(grown);
  }
  rest_.erase(taken);
  std::fill(col_.begin(), col_.end(), 0.0);
  const double lkk = std::sqrt(residual_[p]);
  l_(p, k) = lkk;
  col_[p] = lkk;
  residual_[p] = 0.0;
  // Rows not yet taken are independent: each reads its own row of L and the
  // pivot row and writes only its own entries, with the same serial dot as a
  // single-threaded run, so results are thread-count invariant.  Eight rows
  // run together, so eight of those serial chains are in flight at once;
  // each row's chain is the single-row loop's, term for term, and the
  // remainder rows run that loop itself.
  const auto finish_row = [&](std::size_t i, double v) {
    const double lik = v / lkk;
    l_(i, k) = lik;
    col_[i] = lik;
    residual_[i] -= lik * lik;
  };
  const auto update_rows = [&](std::size_t qb, std::size_t qe) {
    const double* lp = l_.row(p).data();
    std::size_t q = qb;
    for (; q + 8 <= qe; q += 8) {
      const std::size_t* r = &rest_[q];
      const double* l0 = l_.row(r[0]).data();
      const double* l1 = l_.row(r[1]).data();
      const double* l2 = l_.row(r[2]).data();
      const double* l3 = l_.row(r[3]).data();
      const double* l4 = l_.row(r[4]).data();
      const double* l5 = l_.row(r[5]).data();
      const double* l6 = l_.row(r[6]).data();
      const double* l7 = l_.row(r[7]).data();
      double v0 = s_(r[0], p), v1 = s_(r[1], p), v2 = s_(r[2], p);
      double v3 = s_(r[3], p), v4 = s_(r[4], p), v5 = s_(r[5], p);
      double v6 = s_(r[6], p), v7 = s_(r[7], p);
      for (std::size_t j = 0; j < k; ++j) {
        v0 -= l0[j] * lp[j];
        v1 -= l1[j] * lp[j];
        v2 -= l2[j] * lp[j];
        v3 -= l3[j] * lp[j];
        v4 -= l4[j] * lp[j];
        v5 -= l5[j] * lp[j];
        v6 -= l6[j] * lp[j];
        v7 -= l7[j] * lp[j];
      }
      finish_row(r[0], v0);
      finish_row(r[1], v1);
      finish_row(r[2], v2);
      finish_row(r[3], v3);
      finish_row(r[4], v4);
      finish_row(r[5], v5);
      finish_row(r[6], v6);
      finish_row(r[7], v7);
    }
    for (; q < qe; ++q) {
      const std::size_t i = rest_[q];
      double v = s_(i, p);
      const double* li = l_.row(i).data();
      for (std::size_t j = 0; j < k; ++j) v -= li[j] * lp[j];
      finish_row(i, v);
    }
  };
  const std::size_t rest = rest_.size();
  const std::size_t nt = util::thread_count();
  if (nt > 1 && rest * (k + 1) >= 65'536) {
    util::parallel_for(0, rest, std::max<std::size_t>(64, rest / (4 * nt)),
                       update_rows);
  } else {
    update_rows(0, rest);
  }
  return col_;
}

// Squareness is validated by the engine in every build; a contract would
// duplicate it.
// repro-lint: allow(contracts)
PivotedChol pivoted_cholesky(const Matrix& s, double rel_tol) {
  const util::telemetry::Span span("linalg.pivoted_cholesky");
  CholeskyPivots engine(s);
  const std::size_t n = s.rows();
  PivotedChol out;
  out.perm.resize(n);
  std::iota(out.perm.begin(), out.perm.end(), 0);
  // Row perm[i]'s residual: the scan below runs in the order the earlier
  // pivots' swaps left perm in, so the first such row wins a tie.
  const auto residual = [&](std::size_t i) {
    return engine.residual()[static_cast<std::size_t>(out.perm[i])];
  };
  double max_diag0 = 0.0;
  for (double d : engine.residual()) max_diag0 = std::max(max_diag0, d);
  const double tol =
      (rel_tol >= 0.0 ? rel_tol
                      : static_cast<double>(n) *
                            std::numeric_limits<double>::epsilon() * 16.0) *
      (max_diag0 > 0.0 ? max_diag0 : 1.0);
  std::size_t k = 0;
  for (; k < n; ++k) {
    // Pivot: largest remaining Schur diagonal.
    std::size_t piv = k;
    for (std::size_t i = k + 1; i < n; ++i) {
      if (residual(i) > residual(piv)) piv = i;
    }
    if (residual(piv) <= tol) break;
    std::swap(out.perm[piv], out.perm[k]);
    const auto p = static_cast<std::size_t>(out.perm[k]);
    out.sigma.push_back(engine.pivot(p)[p]);
  }
  out.rank = k;
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
