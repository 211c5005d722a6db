#include "linalg/solve.h"

#include <cmath>
#include <limits>

#include "linalg/cholesky.h"
#include "linalg/gemm.h"
#include "util/contracts.h"
#include "util/telemetry.h"

namespace repro::linalg {

double inverse_one_norm_estimate(const CholFactors& f) {
  if (!f.ok) return std::numeric_limits<double>::infinity();
  const std::size_t n = f.l.rows();
  if (n == 0) return 0.0;
  // Hager's algorithm: maximize ||S^{-1} x||_1 over the unit 1-norm ball by
  // alternating solves with the gradient sign vector.  S is symmetric, so
  // the transpose solve is the same solve.
  Vector x(n, 1.0 / static_cast<double>(n));
  double est = 0.0;
  for (int iter = 0; iter < 5; ++iter) {
    const Vector y = chol_solve(f, x);
    est = norm1(y);
    if (!std::isfinite(est)) return std::numeric_limits<double>::infinity();
    Vector xi(n);
    for (std::size_t i = 0; i < n; ++i) xi[i] = (y[i] >= 0.0) ? 1.0 : -1.0;
    const Vector z = chol_solve(f, std::move(xi));
    std::size_t j = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (std::abs(z[i]) > std::abs(z[j])) j = i;
    }
    if (std::abs(z[j]) <= dot(z, x)) break;  // converged at a maximizer
    x.assign(n, 0.0);
    x[j] = 1.0;
  }
  return est;
}

SpdFactor spd_factor_robust(const Matrix& s, double max_condition) {
  // A caller bug in checked builds; the documented Release behavior below
  // (condition = inf, no factor) is kept for fault-injected flows.
  REPRO_CHECK_DIM(s.rows(), s.cols(), "spd_factor_robust: square system");
  SpdFactor out;
  util::telemetry::count("linalg.spd_solve.calls");
  if (s.rows() != s.cols()) {
    out.info.condition = std::numeric_limits<double>::infinity();
    return out;
  }
  const double anorm = one_norm(s);
  out.factors = chol_factor(s);
  out.info.condition =
      out.factors.ok ? anorm * inverse_one_norm_estimate(out.factors)
                     : std::numeric_limits<double>::infinity();
  if (out.factors.ok && out.info.condition <= max_condition) {
    out.info.ok = true;
    return out;
  }
  // Ridge fallback: grow the ridge until the regularized system factorizes
  // and is acceptably conditioned.  A ridge of order ||S|| always succeeds
  // for finite input, so only NaN/Inf data exhausts the loop.
  double scale = s.max_abs();
  if (scale == 0.0 || !std::isfinite(scale)) scale = 1.0;
  double ridge = scale * 1e-12;
  for (int attempt = 0; attempt < 40; ++attempt) {
    Matrix sj = s;
    for (std::size_t i = 0; i < sj.rows(); ++i) sj(i, i) += ridge;
    out.factors = chol_factor(std::move(sj));
    if (out.factors.ok) {
      const double cond =
          (anorm + ridge) * inverse_one_norm_estimate(out.factors);
      if (cond <= max_condition || ridge >= scale) {
        out.info.ok = true;
        out.info.regularized = true;
        out.info.ridge = ridge;
        util::telemetry::count("linalg.spd_solve.ridge_fallbacks");
        return out;
      }
    }
    ridge *= 10.0;
    if (ridge > scale * 10.0) break;
  }
  out.factors = CholFactors{};
  return out;
}

Matrix spd_solve_robust(const Matrix& s, const Matrix& b, SpdSolveInfo* info,
                        double max_condition) {
  REPRO_CHECK_DIM(b.rows(), s.rows(), "spd_solve_robust: rhs rows");
  if (b.rows() != s.rows()) {
    if (info) *info = {.condition = std::numeric_limits<double>::infinity()};
    return Matrix(s.rows(), b.cols());
  }
  const SpdFactor sf = spd_factor_robust(s, max_condition);
  if (info) *info = sf.info;
  if (!sf.info.ok) return Matrix(s.rows(), b.cols());
  return chol_solve(sf.factors, b);
}

Vector spd_solve_robust(const Matrix& s, const Vector& b, SpdSolveInfo* info,
                        double max_condition) {
  REPRO_CHECK_DIM(b.size(), s.rows(), "spd_solve_robust: rhs length");
  if (b.size() != s.rows()) {
    if (info) *info = {.condition = std::numeric_limits<double>::infinity()};
    return Vector(s.rows(), 0.0);
  }
  const SpdFactor sf = spd_factor_robust(s, max_condition);
  if (info) *info = sf.info;
  if (!sf.info.ok) return Vector(s.rows(), 0.0);
  return chol_solve(sf.factors, b);
}

}  // namespace repro::linalg
