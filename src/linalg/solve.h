// Higher-level solvers built on the Cholesky factorization: a condition
// estimate of a Gram system and the condition-gated, ridge-regularized
// factorization for noisy-silicon calibration.
#pragma once

#include "linalg/cholesky.h"
#include "linalg/matrix.h"

namespace repro::linalg {

// Hager/Higham estimate of ||S^{-1}||_1 from a Cholesky factorization of the
// symmetric S (a few solves instead of an explicit inverse; the standard
// LAPACK-xPOCON approach).  Returns +inf when the factorization is not ok.
double inverse_one_norm_estimate(const CholFactors& f);

// Robust Gram factorization for noisy-silicon calibration: reports
// conditioning and the ridge it had to apply instead of throwing.  Policy:
//   1. factor S; if cond_1(S) <= max_condition, keep that factor;
//   2. otherwise (or when the factorization fails) retry with a growing
//      diagonal ridge until the regularized system is well-conditioned;
//   3. ok == false only for pathological input (NaN/Inf) that no ridge fixes.
// `condition` always refers to the original S (+inf if unfactorizable), so
// callers can report how sick the measured Gram matrix was.
struct SpdSolveInfo {
  bool ok = false;
  bool regularized = false;  // a ridge was applied
  double ridge = 0.0;        // diagonal ridge actually used
  double condition = 0.0;    // cond_1 estimate of the *original* S
};
struct SpdFactor {
  CholFactors factors;  // of S + ridge I; factors.ok == info.ok
  SpdSolveInfo info;
};
// One factorization serves any number of chol_solve calls: a caller with
// several right-hand sides per system pays the condition estimate and any
// ridge search once.  Counted under linalg.spd_solve.calls.
SpdFactor spd_factor_robust(const Matrix& s, double max_condition = 1e12);

// spd_factor_robust + chol_solve; the solution is zero when !info->ok.
Matrix spd_solve_robust(const Matrix& s, const Matrix& b,
                        SpdSolveInfo* info = nullptr,
                        double max_condition = 1e12);
Vector spd_solve_robust(const Matrix& s, const Vector& b,
                        SpdSolveInfo* info = nullptr,
                        double max_condition = 1e12);

}  // namespace repro::linalg
