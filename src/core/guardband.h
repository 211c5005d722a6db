// Guard-band analysis (paper Section 6.3).
//
// After prediction, a path i is declared failing when its predicted delay,
// inflated by its guard-band, exceeds Tcons:
//
//   flag_i  <=>  d_pred(i) / (1 - eps_i) > Tcons,
//
// with eps_i the per-path worst-case relative error (analytic, from the
// error model).  Because eps_i bounds the true relative error with
// worst-case confidence, a flagged-clean path is clean "with full
// confidence"; the analysis quantifies that on Monte-Carlo silicon: missed
// failures (should be ~0) and false alarms (the price of the guard-band).
#pragma once

#include "core/monte_carlo.h"
#include "core/predictor.h"
#include "variation/variation_model.h"

namespace repro::core {

struct GuardbandReport {
  double epsilon = 0.0;         // configured tolerance (upper bound on eps_i)
  double avg_guardband = 0.0;   // average analytic eps_i over remaining paths
  double max_guardband = 0.0;   // max analytic eps_i
  // Failure-detection confusion counts over (samples x remaining paths):
  std::size_t true_fails = 0;    // true delay > Tcons
  std::size_t flagged = 0;       // guard-banded prediction > Tcons
  std::size_t missed = 0;        // true fail not flagged
  std::size_t false_alarms = 0;  // flagged but not a true fail
  std::size_t observations = 0;  // samples * remaining paths
  McMetrics mc;                  // e1/e2 of the underlying predictor
};

// `per_path_eps` must align with predictor.remaining (analytic worst-case
// relative errors, e.g. SelectionErrors::per_path_eps or
// kappa * predictor.error_sigmas() / t_cons).  The counts are taken on
// evaluate_predictor's dies: `mc` equals evaluate_predictor(model,
// predictor, options) bit for bit, and the counts are the same for any
// thread count.
GuardbandReport guardband_analysis(const variation::VariationModel& model,
                                   const LinearPredictor& predictor,
                                   const linalg::Vector& per_path_eps,
                                   double t_cons, double epsilon,
                                   const McOptions& options = {});

// ---------------------------------------------------------------------------
// Streaming adaptive guard-band (core/streaming_calibrator.h).
//
// Per remaining path i the total prediction sigma combines the batch
// predictor's analytic error sigma with the streaming shift-posterior
// variance q_i = a_i^T P a_i:
//
//   sigma_i = sqrt(base_i^2 + q_i),   eps_i = kappa * sigma_i / |mu_i|.
//
// The guard-band is the mean eps_i.  Along a clean stream with forgetting 1
// every accepted die shrinks P (and so every q_i), so the guard-band is
// monotonically non-inflating and tightens as information accumulates.
// ---------------------------------------------------------------------------

struct AdaptiveGuardband {
  double eps = 0.0;            // mean relative guard-band over remaining paths
  double max_eps = 0.0;        // worst per-path relative guard-band
  double mean_sigma_ps = 0.0;  // mean total per-path sigma
  double shift_share = 0.0;    // mean variance fraction from the shift term
};

// `base_sigma_ps` are the batch per-path error sigmas (e.g.
// RobustPredictor::error_sigmas()), `shift_var_ps2` the per-path posterior
// variances q_i, `mu_rem_ps` the nominal remaining-path delays; all three
// must align.  Empty inputs yield a zero guard-band.
AdaptiveGuardband adaptive_guardband(std::span<const double> base_sigma_ps,
                                     std::span<const double> shift_var_ps2,
                                     std::span<const double> mu_rem_ps,
                                     double kappa);

}  // namespace repro::core
