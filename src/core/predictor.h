// Theorem 2: the optimal (minimum-MSE) linear predictor of unmeasured path
// delays from measured path / segment delays.
//
// With all delays jointly Gaussian under d = mu + M x, x ~ N(0, I), the
// conditional mean of the unmeasured block given measurements y is
//
//   d_m = mu_m + A_m M_y^T (M_y M_y^T)^+ (y - mu_y),
//
// which for path-only measurements is exactly the paper's Eqn (5).  The same
// construction with M_y stacking rows of A (measured paths) and rows of
// Sigma (measured segments) powers the hybrid Algorithm 3.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.h"

namespace repro::core {

struct LinearPredictor {
  // Prediction: d_rem = mu_rem + coef * (y - mu_meas).
  linalg::Matrix coef;        // n_rem x n_meas
  linalg::Vector mu_meas;
  linalg::Vector mu_rem;
  std::vector<int> remaining;      // target-path indices being predicted
  std::vector<int> measured_paths;     // target-path indices measured
  std::vector<int> measured_segments;  // segment ids measured (may be empty)

  // Per-remaining-path one-sigma prediction error (ps): the row norms of
  // the error shape Omega = coef * M_y - A_rem (paper Eqn (6)), whose row i
  // maps x to the error Delta_i = omega_i . x.  Omega itself is formed only
  // during the build, to take these norms.
  linalg::Vector sigma;

  linalg::Vector predict(std::span<const double> measured) const;
  const linalg::Vector& error_sigmas() const { return sigma; }
};

// Paper Eqn (5): measure the rows `rep` of A; predict all remaining rows.
LinearPredictor make_path_predictor(const linalg::Matrix& a,
                                    const linalg::Vector& mu,
                                    const std::vector<int>& rep);

// Batched prediction: one die per row of `measured` (n_dies x n_meas), one
// die per row of the result (n_dies x n_rem).  This is the selection
// server's batch-gather entry point: concurrent predict requests are
// gathered into a panel and answered in one pass, so each row of `coef`
// streams from memory once per BATCH instead of once per die — the same
// multi-RHS win as the trsm panel in core/error_model.  Every output row is
// computed element-for-element with LinearPredictor::predict's arithmetic
// (the same linalg::dot kernel in the same order), and the parallel split
// over output columns never changes any element's operand order, so batched
// results are bit-identical to per-die serial predicts at any thread count.
// Throws std::invalid_argument on a column-count mismatch.
linalg::Matrix predict_panel(const LinearPredictor& p,
                             const linalg::Matrix& measured);

// Hybrid measurement set: rows `rep_paths` of A plus rows `rep_segments` of
// Sigma.  Predicts the target paths in `remaining` (pass all non-measured
// path indices).
LinearPredictor make_joint_predictor(const linalg::Matrix& a,
                                     const linalg::Vector& mu_paths,
                                     const linalg::Matrix& sigma,
                                     const linalg::Vector& mu_segments,
                                     const std::vector<int>& rep_paths,
                                     const std::vector<int>& rep_segments,
                                     const std::vector<int>& remaining);

// ---------------------------------------------------------------------------
// Noisy-silicon robustness layer.
//
// Real post-silicon test gives noisy, quantized, occasionally missing
// measurements (see core/measurement.h).  The types below wrap the Theorem-2
// predictor with (a) structured status reporting instead of exceptions,
// (b) a condition-number / ridge fallback for ill-conditioned measured Gram
// systems, (c) graceful degradation when representative paths are dead
// (rebuild on the surviving subset, optionally promoting backups from the
// Algorithm-2 pivot order), and (d) a per-die IRLS/Huber calibration with
// residual-based outlier screening.
// ---------------------------------------------------------------------------

enum class PredictorHealth {
  kOk,        // clean construction / prediction
  kDegraded,  // usable, but ridge-regularized, dead paths dropped, or
              // measurements screened/missing
  kFailed,    // no usable predictor / prediction (values fall back to nominal)
};
const char* to_string(PredictorHealth h);

struct PredictorStatus {
  PredictorHealth health = PredictorHealth::kFailed;
  double gram_condition = 0.0;     // cond_1 estimate of A_r A_r^T (original)
  double ridge = 0.0;              // ridge applied to the Gram solve (0=none)
  std::vector<int> dropped_paths;  // representative paths removed as dead
  std::vector<int> promoted_paths; // backups promoted from the pivot order
  double sigma_inflation = 1.0;    // mean noise-inflated / clean error sigma
  std::string message;             // human-readable reason when not kOk
  bool usable() const { return health != PredictorHealth::kFailed; }
};

// Measured-Gram systems above this 1-norm condition estimate trigger the
// reported ridge fallback (and a kDegraded status).
inline constexpr double kRobustMaxCondition = 1e12;

// The Huber tuning, IRLS stopping rule and outlier z-score threshold are
// fixed constants of the robust solve (predictor.cpp).
struct RobustOptions {
  // Known 1-sigma sensor noise (ps).  This is the MAP noise prior of the
  // IRLS solve; with 0 the solve interpolates the measurements exactly
  // (residuals vanish) and neither reweighting nor screening can act — pass
  // core::expected_noise_sigma(spec, mu_meas) when simulating faults.
  double measurement_sigma_ps = 0.0;
  // When representative paths are dead, refill the measured set from
  // backup_order (the Algorithm-2 column-pivot order; entries already
  // measured or dead are skipped).  Empty = promote nothing.
  std::vector<int> backup_order;
};

struct RobustPrediction {
  linalg::Vector values;      // predicted remaining-path delays (ps); on
                              // kFailed these are the nominal delays
  PredictorHealth health = PredictorHealth::kFailed;
  std::vector<int> screened;  // measurement slots rejected as outliers
  std::vector<int> missing;   // slots invalid on input (dropped/non-finite)
  int irls_iterations = 0;
  double residual_scale = 0.0;  // robust residual sigma estimate (ps)
  // Dual solution z over the kept slots (the valid, unscreened slots in
  // ascending order): values = mu_rem + A_rem A_kept^T z.  Empty unless a
  // solve succeeded.
  linalg::Vector dual;
};

struct RobustPredictor {
  LinearPredictor base;    // Theorem-2 predictor on the surviving rep set
  linalg::Matrix a_meas;   // surviving measurement sensitivities (n_meas x m)
  // ||a_i||^2 of every remaining path: the streaming calibrator's prior and
  // covariance floor.  The rows a_i themselves stay in the variation model.
  linalg::Vector rem_norm2;
  linalg::Matrix gram_meas;  // A_r A_r^T, cached for per-die subset solves
  // A_r A_rem^T (n_meas x n_rem): the measured-space image of every
  // remaining path, through which predict() maps the dual solution.
  linalg::Matrix cross;
  PredictorStatus status;
  RobustOptions options;

  // Robust per-die prediction: Huber-IRLS dual estimate z from the valid
  // measurements, residual outlier screening, then
  // d_rem = mu_rem + A_rem A_kept^T z = mu_rem + sum_j z_j cross.row(kept_j),
  // all in the measured space: O(k^3 + k n_rem) per die, independent of m.
  // `valid` (optional, one flag per measurement slot) marks slots usable on
  // this die; non-finite measured values are screened unconditionally.
  // Never throws; with no usable measurement the nominal delays are returned
  // with health kFailed.
  RobustPrediction predict(std::span<const double> measured,
                           std::span<const char> valid = {}) const;

  // Analytic per-remaining-path error sigma inflated by the measurement
  // noise prior: sqrt(||omega_i||^2 + sigma_meas^2 ||coef_i||^2).
  linalg::Vector error_sigmas() const;
};

// Builds the robust predictor for measured rows `rep` of A, excluding the
// paths listed in `dead` (flagged unmeasurable pre-calibration; they join
// the predicted remaining set) and promoting backups per `options`.  Never
// throws on bad input or ill-conditioned Gram systems: inspect
// result.status (kFailed predictors return nominal-delay predictions).
RobustPredictor make_robust_path_predictor(const linalg::Matrix& a,
                                           const linalg::Vector& mu,
                                           const std::vector<int>& rep,
                                           const std::vector<int>& dead = {},
                                           const RobustOptions& options = {});

}  // namespace repro::core
