// Streaming recalibration: the predictor learns from every measured die.
//
// The paper calibrates once per die batch; real post-silicon flows see dies
// *stream* in (EffiTest-style).  This module maintains a recursive-least-
// squares / Kalman posterior over a *systematic process shift* b in the
// normalized parameter space of the variation model:
//
//   die k silicon:  x_k = b + v_k,          v_k ~ N(0, I)   (die-to-die)
//   measurements:   y_k = mu_y + A_v x_k + e_k,  e_k ~ N(0, sigma^2 I)
//
// so each die observes b through the effective noise n_k = A_v v_k + e_k
// with covariance R = A_v A_v^T + sigma^2 I.  With prior b ~ N(0, I/tau)
// the posterior N(b_hat, P) updates per accepted die by the standard Kalman
// recursion (information accumulates, P shrinks).  This is exactly the
// posterior-mean inversion of core/diagnosis.h, made recursive: one die at a
// time instead of one batch solve.
//
// Measured-space state.  Every update adds a term in the span of the rows
// of A = A_meas, so the posterior is exactly
//
//   P = alpha I - A^T K A,   b_hat = A^T beta,
//
// and the calibrator stores the scalar alpha, the n_meas x n_meas matrix K
// and the n_meas-vector beta — never an m x m matrix.  With G = A A^T and
// C = A A_rem^T (RobustPredictor::cross), the Kalman recursion on survivors
// v becomes
//
//   U = (alpha E_v - K G(:,v)) / lambda       (P A_v^T / lambda = A^T U)
//   S = G(v,:) U + G_vv + sigma^2 I
//   S X_b = U^T,  dK = U X_b
//   beta += U w,  alpha <- alpha / lambda,  K <- K / lambda + dK,
//   q_i <- q_i / lambda - c_i^T dK c_i        (c_i = column i of C)
//
// with S factored once per die and the q downdate taken as ||L^{-1} U^T c_i||^2
// off that factor (S = L L^T), so an observe costs O(n_meas^2 (k + n_rem))
// plus the O(m n_meas) refresh of the cached b_hat = A^T beta.
//
// Robust update gating (PR-2 machinery in front of the state):
//   * every incoming die passes the RobustPredictor IRLS/Huber calibration
//     with MAD z-score outlier screening, applied to the *shift-corrected*
//     measurements (y - A_v b_hat), so the gate screens against the current
//     model, not the stale nominal one;
//   * dies whose screening rejects too many slots, or whose whole-die
//     innovation is a gross outlier, are rejected (no state update) with a
//     structured reason; dies with no usable measurement, or whose update
//     system is pathological, are quarantined likewise;
//   * the per-die innovation system S = A_v (P/lambda) A_v^T + R is factored
//     once via linalg::spd_factor_robust, whose 1-norm condition estimate
//     gates it: an ill-conditioned S triggers one *reported* ridge fallback
//     (health degrades, never throws) shared by every solve of the die.  After every accepted die the posterior
//     covariance's exact 2-norm condition is audited — spec(P) is alpha and
//     alpha - mu_i, mu_i the eigenvalues of G^1/2 K G^1/2, an O(n_meas^3)
//     eigenproblem — and a collapsed P is floored.
//
// Drift detection: a two-sided CUSUM on the whitened coherent-shift
// statistic u = r^T S^{-1} 1 / sqrt(1^T S^{-1} 1) over the survivor slots —
// the matched filter for a shift that moves every slot the same way, with
// unit variance under the model by construction.  A process shift gives u a
// persistent mean, die after die; symmetric sensor noise, including
// heavy-tailed outlier mixtures, cancels both within a die and across dies,
// and whitening with the full S keeps the correlated direction the die's
// shared spatial parameters span correctly weighted.  (The quadratic
// z_k = (r^T S^{-1} r - k) / sqrt(2k) cannot make that distinction — any
// variance inflation looks like drift — so it serves only as the whole-die
// outlier gate.)  The residuals
// feeding u are taken against a *lagged snapshot* of the shift estimate
// (refreshed every drift_ref_interval accepted dies), not the live one: the
// filter absorbs a genuine shift within a few dies, which would starve the
// CUSUM of evidence; against the snapshot the shift stays visible for a
// full refresh interval — two timescales, fast filter, slow reference.  A real
// tester's noise never matches the scalar sigma prior exactly, so the
// monitor self-calibrates: the u values of the first min_dies_for_drift
// measurable dies fix a median/MAD baseline, a robust EWMA tracks its slow
// transients, and the CUSUM runs on the clipped deviation from that
// baseline — no single weird die can flag, and drift means "the stream
// changed", not "the stream differs from an idealized noise model".
// Limitation: drift present before the warmup window completes is absorbed
// into the baseline.  The score and the
// per-die adaptive guard-band are published as telemetry gauges
// (core.stream.drift_score, core.stream.guardband) next to the
// dies_accepted / dies_rejected / dies_quarantined counters.
//
// Adaptive guard-band: the shift-posterior variance contribution
// q_i = a_i^T P a_i of every remaining path is maintained exactly across
// updates (downdated by c_i^T dK c_i above) and combined with the batch
// predictor's analytic error sigmas by core::adaptive_guardband
// (core/guardband.h).  With forgetting = 1 every accepted die shrinks P, so
// the guard-band is monotonically non-inflating on a clean stream and
// tightens as fab data accumulates.
//
// Failure contract: mirrors PR 2 — the calibrator never throws on
// fault-injected input.  Unusable input quarantines the die; a corrupted
// state (non-finite posterior) latches health kUnusable and every subsequent
// prediction degrades to the batch robust predictor unchanged.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "core/predictor.h"
#include "linalg/matrix.h"

namespace repro::core {

// "No die" sentinel for die indices (drift flag, scenario start).
inline constexpr std::size_t kNoDie = static_cast<std::size_t>(-1);

enum class StreamHealth {
  kOk,        // clean state, no fallback engaged
  kDegraded,  // usable, but ridge/floor applied, dies gated, or drift flagged
  kUnusable,  // no usable state: predictions fall back to the batch predictor
};
const char* to_string(StreamHealth h);

// Why a die did not update the state.  kAccepted dies carry kNone.
enum class StreamGate {
  kNone = 0,           // accepted
  kStreamUnusable,     // calibrator health is kUnusable (no gating attempted)
  kSizeMismatch,       // measurement vector length != predictor slot count
  kNoUsableSlots,      // every slot dead / dropped / non-finite on this die
  kPathologicalSolve,  // robust gate could not solve (non-finite system)
  kExcessScreening,    // screened+missing fraction above the reject threshold
  kInnovationOutlier,  // whole-die standardized innovation beyond the gate
  kIllConditioned,     // update system unsolvable even with the ridge policy
};
constexpr std::size_t kNumStreamGates = 8;
const char* to_string(StreamGate g);

struct StreamingOptions {
  // The per-die screening gate is the batch predictor's robust solve (the
  // Huber IRLS and z-score screen of predictor.cpp) under the
  // measurement_sigma_ps it was built with (predictor.options), which
  // doubles as the sensor-noise term of the innovation covariance here.
  //
  // RLS forgetting factor lambda in (0, 1]: 1 = infinite memory (guard-band
  // monotone); < 1 tracks slow drift at the cost of a variance floor.
  double forgetting = 1.0;
  // Prior precision tau: b ~ N(0, I/tau).  Larger = stronger belief that
  // the batch variation model is already centred.
  double prior_precision = 4.0;
  // Conditioning limit for the innovation system (1-norm estimate inside
  // spd_factor_robust) and the posterior covariance (exact 2-norm condition,
  // audited after every accepted die); above it the reported ridge / floor
  // fallback engages.
  double max_condition = 1e12;
  // Reject a die when more than this fraction of its usable slots was
  // screened by the robust gate.
  double max_screened_fraction = 0.5;
  // Reject a die whose |standardized innovation| exceeds this gate (gross
  // whole-die outlier; the CUSUM still sees it, clipped).
  double innovation_z_max = 12.0;
  // CUSUM reference value and decision threshold, in baseline sigmas of the
  // signed mean innovation u.
  double cusum_k = 0.5;
  double cusum_h = 12.0;
  // Per-die CUSUM contribution clip (baseline sigmas): one pathological die
  // cannot cross cusum_h alone, drift needs persistence.
  double cusum_clip = 4.0;
  // Measurable dies whose innovation z calibrates the CUSUM baseline
  // (median/MAD) before the monitor arms.  Drift that begins inside this
  // window is absorbed into the baseline.
  std::size_t min_dies_for_drift = 32;
  // Robust EWMA rate for the armed baseline (0 = frozen after warmup).  The
  // innovation statistic has a slow transient — as the posterior shrinks,
  // the weight of any sensor-noise misspecification grows — and the EWMA
  // absorbs it; adaptation freezes whenever the standardized deviation
  // exceeds 3 baseline sigmas, so a genuine step change cannot be learned
  // away before the CUSUM flags it.  (Correspondingly, drift slower than
  // roughly this rate per die is absorbed — CUSUM targets abrupt change.)
  double baseline_adapt = 0.02;
  // Accepted dies between refreshes of the lagged shift snapshot the drift
  // statistic measures against.  The lag bounds how long a sustained shift
  // stays visible to the CUSUM while the filter adapts it away; it also
  // bounds the detection horizon — drift must accumulate cusum_h within
  // roughly one interval.
  std::size_t drift_ref_interval = 64;
  // Guard-band sigma multiplier (kappa * sigma_i / |mu_i|).
  double guard_kappa = 3.0;
};

// Mirror of PredictorStatus for the stream: one glanceable health roll-up.
struct StreamStatus {
  StreamHealth health = StreamHealth::kUnusable;
  std::size_t dies_seen = 0;
  std::size_t dies_accepted = 0;
  std::size_t dies_rejected = 0;     // gated by screening/innovation checks
  std::size_t dies_quarantined = 0;  // unusable input or pathological update
  std::array<std::size_t, kNumStreamGates> gate_counts{};  // by StreamGate
  double drift_score = 0.0;          // current CUSUM statistic (max of sides)
  bool drift_flagged = false;        // latched once the CUSUM crossed cusum_h
  std::size_t drift_flag_die = kNoDie;  // first die at which it crossed
  double guardband = 0.0;            // current adaptive guard-band (relative)
  double info_condition = 0.0;       // 2-norm condition of the posterior cov
                                     // at the last accepted die
  double last_ridge = 0.0;           // ridge applied by the latest update
  std::size_t ridge_events = 0;      // updates that needed ridge or floor
  double shift_norm = 0.0;           // ||b_hat|| (parameter sigmas)
  std::string message;               // human-readable reason when not kOk
  bool usable() const { return health != StreamHealth::kUnusable; }
};

// Per-die outcome, returned by observe().
struct DieRecord {
  std::size_t die = 0;
  bool accepted = false;
  StreamGate gate = StreamGate::kNone;  // why the die did not update
  PredictorHealth prediction_health = PredictorHealth::kFailed;
  linalg::Vector predicted;    // remaining-path delays under the current state
  std::size_t screened_slots = 0;  // robust-gate outlier rejections
  std::size_t missing_slots = 0;   // dead / dropped / non-finite slots
  double innovation_z = 0.0;   // standardized chi-square innovation
  double drift_score = 0.0;    // CUSUM after this die
  bool drift_flagged = false;  // score above threshold at this die
  double guardband = 0.0;      // adaptive guard-band after this die
  double ridge = 0.0;          // ridge the update solve needed (0 = none)
};

class StreamingCalibrator {
 public:
  // The calibrator owns the batch robust predictor (its screening gate and
  // degradation target); pass an rvalue to hand it over without a copy.  An
  // unusable predictor yields an unusable stream: every die quarantines and
  // predictions are nominal fallbacks.  Never throws on a failed predictor.
  explicit StreamingCalibrator(RobustPredictor predictor,
                               const StreamingOptions& options = {});

  // Feeds one measured die: robust screening gate, state update (when
  // accepted), drift/guard-band refresh, and the per-die prediction under
  // the updated state.  `die` is the global die index (telemetry and
  // quarantine bookkeeping only — the state recursion is order-dependent by
  // design).  Never throws on fault-injected input.
  DieRecord observe(std::size_t die, std::span<const double> measured,
                    std::span<const char> valid = {});

  // Shift-corrected robust prediction under the current state, without
  // updating it.  When the stream is unusable this is exactly the batch
  // robust predictor's prediction (graceful degradation).
  RobustPrediction predict(std::span<const double> measured,
                           std::span<const char> valid = {}) const;

  const StreamStatus& status() const { return status_; }
  const RobustPredictor& predictor() const { return predictor_; }
  // Posterior mean of the systematic shift (parameter sigmas), A^T beta.
  const linalg::Vector& shift() const { return b_; }
  // Posterior covariance diagonal contribution per remaining path:
  // q_i = a_i^T P a_i (ps^2), the guard-band's shrinking term.
  const linalg::Vector& shift_variance() const { return q_; }
  // Current adaptive guard-band (mean relative eps over remaining paths).
  double guardband() const { return status_.guardband; }
  const StreamingOptions& options() const { return options_; }

 private:
  void publish_telemetry() const;
  void refresh_shift_cache();
  void audit_covariance();
  void mark_unusable(std::string why);
  DieRecord gated(std::size_t die, StreamGate gate, RobustPrediction&& rp);

  RobustPredictor predictor_;
  StreamingOptions options_;
  StreamStatus status_;

  // Posterior P = alpha_ I - A^T k_ A and b_hat = A^T beta_ (A = A_meas).
  double alpha_ = 0.0;
  linalg::Matrix k_;        // n_meas x n_meas, symmetric PSD
  linalg::Vector beta_;     // n_meas
  linalg::Vector b_;        // A^T beta_ (cached for shift(), m)
  linalg::Matrix gram_root_;   // L = Q Lambda^1/2 with G = L L^T (audit)
  linalg::Vector q_;        // a_i^T P a_i per remaining path (ps^2)
  linalg::Vector base_sigma_;  // batch per-path error sigmas (cached)
  linalg::Vector shift_meas_;  // G beta = A_meas b_hat (cached, ps)
  linalg::Vector shift_rem_;   // C^T beta = A_rem b_hat (cached, ps)
  // Lagged snapshot of shift_meas_ the drift statistic measures against
  // (refreshed every drift_ref_interval accepted dies).
  linalg::Vector drift_ref_meas_;
  std::size_t drift_ref_age_ = 0;
  double cusum_pos_ = 0.0;
  double cusum_neg_ = 0.0;
  // Self-calibrated CUSUM baseline: warmup z samples, then frozen
  // median / MAD-sigma once armed.
  linalg::Vector drift_warmup_;
  double drift_mu0_ = 0.0;
  double drift_sd0_ = 1.0;
  double drift_var0_ = 1.0;
  bool drift_armed_ = false;
};

}  // namespace repro::core
