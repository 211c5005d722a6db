#include "core/streaming_calibrator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "core/guardband.h"
#include "linalg/eigen_sym.h"
#include "linalg/gemm.h"
#include "linalg/solve.h"
#include "util/stats.h"
#include "util/telemetry.h"

namespace repro::core {

const char* to_string(StreamHealth h) {
  switch (h) {
    case StreamHealth::kOk: return "ok";
    case StreamHealth::kDegraded: return "degraded";
    case StreamHealth::kUnusable: return "unusable";
  }
  return "?";
}

const char* to_string(StreamGate g) {
  switch (g) {
    case StreamGate::kNone: return "accepted";
    case StreamGate::kStreamUnusable: return "stream_unusable";
    case StreamGate::kSizeMismatch: return "size_mismatch";
    case StreamGate::kNoUsableSlots: return "no_usable_slots";
    case StreamGate::kPathologicalSolve: return "pathological_solve";
    case StreamGate::kExcessScreening: return "excess_screening";
    case StreamGate::kInnovationOutlier: return "innovation_outlier";
    case StreamGate::kIllConditioned: return "ill_conditioned";
  }
  return "?";
}

namespace {

bool quarantine_gate(StreamGate g) {
  // Rejected = failed the robust gate but was a well-formed die; quarantined
  // = unusable input or a pathological update system.
  return g != StreamGate::kExcessScreening &&
         g != StreamGate::kInnovationOutlier;
}

// Telemetry counter name per gate, formatted once so gating a die builds no
// string.
std::string_view gate_counter(StreamGate g) {
  static const std::array<std::string, kNumStreamGates> names = [] {
    std::array<std::string, kNumStreamGates> n;
    for (std::size_t i = 0; i < kNumStreamGates; ++i) {
      n[i] = std::string("core.stream.gate.") +
             to_string(static_cast<StreamGate>(i));
    }
    return n;
  }();
  return names[static_cast<std::size_t>(g)];
}

bool all_finite(std::span<const double> v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

}  // namespace

// The streaming entry points deliberately convert every precondition
// violation into a quarantined DieRecord / StreamStatus instead of aborting:
// the stream must survive fault-injected input.
// repro-lint: allow-file(contracts)

StreamingCalibrator::StreamingCalibrator(RobustPredictor predictor,
                                         const StreamingOptions& options)
    : predictor_(std::move(predictor)), options_(options) {
  // Sanitize the knobs that feed divisions.
  if (!(options_.forgetting > 0.0 && options_.forgetting <= 1.0)) {
    options_.forgetting = 1.0;
  }
  if (!(options_.prior_precision > 0.0)) options_.prior_precision = 1.0;
  if (!predictor_.status.usable()) {
    mark_unusable("batch predictor unusable: " + predictor_.status.message);
    publish_telemetry();
    return;
  }
  const std::size_t n_meas = predictor_.base.mu_meas.size();
  const std::size_t n_rem = predictor_.rem_norm2.size();
  // Prior P = I / tau: alpha = 1/tau, K = 0, beta = 0.
  alpha_ = 1.0 / options_.prior_precision;
  k_ = linalg::Matrix(n_meas, n_meas);
  beta_.assign(n_meas, 0.0);
  b_.assign(predictor_.a_meas.cols(), 0.0);
  // G = Q Lambda Q^T  ->  L = Q Lambda^1/2 (a singular G just gives zero
  // columns), so L^T K L shares its spectrum with G^1/2 K G^1/2.
  const linalg::EigenSymResult eg = linalg::eigen_sym(predictor_.gram_meas);
  gram_root_ = eg.vectors;
  for (std::size_t j = 0; j < n_meas; ++j) {
    const double root = std::sqrt(std::max(eg.values[j], 0.0));
    for (std::size_t i = 0; i < n_meas; ++i) gram_root_(i, j) *= root;
  }
  q_.resize(n_rem);
  for (std::size_t i = 0; i < n_rem; ++i) {
    q_[i] = alpha_ * predictor_.rem_norm2[i];
  }
  base_sigma_ = predictor_.error_sigmas();
  shift_meas_.assign(n_meas, 0.0);
  shift_rem_.assign(n_rem, 0.0);
  drift_ref_meas_ = shift_meas_;
  if (options_.drift_ref_interval == 0) options_.drift_ref_interval = 1;
  status_.health = StreamHealth::kOk;
  status_.info_condition = 1.0;  // prior covariance is a scaled identity
  const AdaptiveGuardband g = adaptive_guardband(
      base_sigma_, q_, predictor_.base.mu_rem, options_.guard_kappa);
  status_.guardband = g.eps;
  publish_telemetry();
}

void StreamingCalibrator::mark_unusable(std::string why) {
  status_.health = StreamHealth::kUnusable;
  status_.message = std::move(why);
}

void StreamingCalibrator::refresh_shift_cache() {
  shift_meas_ = linalg::matvec(predictor_.gram_meas, beta_);
  shift_rem_ = linalg::matvec_transposed(predictor_.cross, beta_);
  b_ = linalg::matvec_transposed(predictor_.a_meas, beta_);
  double norm2 = 0.0;
  for (double v : b_) norm2 += v * v;
  status_.shift_norm = std::sqrt(norm2);
}

void StreamingCalibrator::audit_covariance() {
  // spec(P) = spec(alpha I - A^T K A).  The nonzero eigenvalues of A^T K A
  // are those of L^T K L (G = L L^T); the rest are zeros: m - n_meas extra
  // ones when m > n_meas, else n_meas - m of L^T K L's eigenvalues are the
  // structural zeros (the smallest, K being PSD) and do not belong to P.
  const std::size_t n_meas = k_.rows();
  const std::size_t m = b_.size();
  const linalg::Matrix lkl =
      linalg::multiply_at(gram_root_, linalg::multiply(k_, gram_root_));
  const linalg::Vector mu = linalg::eigen_sym(lkl).values;
  double hi = -std::numeric_limits<double>::infinity();
  double lo = std::numeric_limits<double>::infinity();
  if (m > n_meas) hi = lo = alpha_;
  for (std::size_t i = m > n_meas ? 0 : n_meas - m; i < n_meas; ++i) {
    hi = std::max(hi, alpha_ - mu[i]);
    lo = std::min(lo, alpha_ - mu[i]);
  }
  status_.info_condition =
      lo > 0.0 ? hi / lo : std::numeric_limits<double>::infinity();
  if (status_.info_condition <= options_.max_condition) return;
  // Collapsed covariance: a reported floor, P += floor I, keeping q = a^T P a
  // consistent.
  const double floor =
      std::max(std::abs(hi) / options_.max_condition, 1e-300) * 10.0;
  alpha_ += floor;
  for (std::size_t i = 0; i < q_.size(); ++i) {
    q_[i] += floor * predictor_.rem_norm2[i];
  }
  status_.last_ridge = floor;
  ++status_.ridge_events;
  if (status_.health == StreamHealth::kOk) {
    status_.health = StreamHealth::kDegraded;
  }
  status_.message = "posterior covariance floored (condition " +
                    std::to_string(status_.info_condition) + ")";
  util::telemetry::count("core.stream.covariance_floors");
}

void StreamingCalibrator::publish_telemetry() const {
  util::telemetry::set_gauge("core.stream.drift_score", status_.drift_score);
  util::telemetry::set_gauge("core.stream.guardband", status_.guardband);
}

DieRecord StreamingCalibrator::gated(std::size_t die, StreamGate gate,
                                     RobustPrediction&& rp) {
  DieRecord rec;
  rec.die = die;
  rec.accepted = false;
  rec.gate = gate;
  rec.prediction_health = rp.health;
  rec.predicted = std::move(rp.values);
  rec.screened_slots = rp.screened.size();
  rec.missing_slots = rp.missing.size();
  rec.drift_score = status_.drift_score;
  rec.drift_flagged = status_.drift_score > options_.cusum_h;
  rec.guardband = status_.guardband;
  status_.gate_counts[static_cast<std::size_t>(gate)]++;
  if (quarantine_gate(gate)) {
    ++status_.dies_quarantined;
    util::telemetry::count("core.stream.dies_quarantined");
  } else {
    ++status_.dies_rejected;
    util::telemetry::count("core.stream.dies_rejected");
  }
  util::telemetry::count(gate_counter(gate));
  publish_telemetry();
  return rec;
}

RobustPrediction StreamingCalibrator::predict(std::span<const double> measured,
                                              std::span<const char> valid)
    const {
  if (!status_.usable() || measured.size() != shift_meas_.size()) {
    // Graceful degradation: exactly the batch robust predictor (which itself
    // nominal-falls-back on malformed input).
    return predictor_.predict(measured, valid);
  }
  // Screen and solve against the shift-corrected model, then move the
  // prediction back: the learned systematic shift relocates the nominal
  // point of the whole die population.
  linalg::Vector corrected(measured.begin(), measured.end());
  for (std::size_t i = 0; i < corrected.size(); ++i) {
    corrected[i] -= shift_meas_[i];
  }
  RobustPrediction rp = predictor_.predict(corrected, valid);
  for (std::size_t i = 0; i < rp.values.size(); ++i) {
    rp.values[i] += shift_rem_[i];
  }
  return rp;
}

DieRecord StreamingCalibrator::observe(std::size_t die,
                                       std::span<const double> measured,
                                       std::span<const char> valid) {
  ++status_.dies_seen;
  if (!status_.usable()) {
    return gated(die, StreamGate::kStreamUnusable,
                 predictor_.predict(measured, valid));
  }
  const std::size_t n_meas = predictor_.base.mu_meas.size();
  if (measured.size() != n_meas ||
      (!valid.empty() && valid.size() != n_meas)) {
    return gated(die, StreamGate::kSizeMismatch,
                 predictor_.predict(measured, valid));
  }

  // Robust screening gate on the shift-corrected measurements.  The gate is
  // the PR-2 IRLS/Huber calibration: MAD-scaled z-score outlier screening,
  // missing-slot handling, nominal fallback — reused verbatim.
  linalg::Vector corrected(measured.begin(), measured.end());
  for (std::size_t i = 0; i < n_meas; ++i) corrected[i] -= shift_meas_[i];
  RobustPrediction rp = predictor_.predict(corrected, valid);
  for (std::size_t i = 0; i < rp.values.size(); ++i) {
    rp.values[i] += shift_rem_[i];
  }
  if (rp.health == PredictorHealth::kFailed) {
    return gated(die,
                 rp.missing.size() == n_meas ? StreamGate::kNoUsableSlots
                                             : StreamGate::kPathologicalSolve,
                 std::move(rp));
  }

  // Survivor slots: usable on this die and not screened as outliers.
  std::vector<char> excluded(n_meas, 0);
  for (int i : rp.missing) excluded[static_cast<std::size_t>(i)] = 1;
  for (int i : rp.screened) excluded[static_cast<std::size_t>(i)] = 1;
  std::vector<int> survivors;
  survivors.reserve(n_meas);
  for (std::size_t i = 0; i < n_meas; ++i) {
    if (!excluded[i]) survivors.push_back(static_cast<int>(i));
  }
  const std::size_t usable = n_meas - rp.missing.size();
  if (survivors.empty() ||
      (usable > 0 &&
       static_cast<double>(rp.screened.size()) >
           options_.max_screened_fraction * static_cast<double>(usable))) {
    return gated(die, StreamGate::kExcessScreening, std::move(rp));
  }
  const std::size_t k = survivors.size();

  // Innovation system on the survivors, in the measured space (header):
  //   U = (alpha E_v - K G(:,v)) / lambda,  S = G(v,:) U + G_vv + sigma^2 I,
  // solved with the reported-ridge robust policy.  `ut` holds U^T (k x n_meas).
  const double inv_lambda = 1.0 / options_.forgetting;
  const linalg::Matrix& gram = predictor_.gram_meas;
  linalg::Matrix ut(k, n_meas);
  for (std::size_t j = 0; j < k; ++j) {
    const auto v = static_cast<std::size_t>(survivors[j]);
    const auto gv = gram.row(v);  // G(:, v), G being symmetric
    for (std::size_t i = 0; i < n_meas; ++i) {
      const double e = (i == v) ? alpha_ : 0.0;
      ut(j, i) = (e - linalg::dot(k_.row(i), gv)) * inv_lambda;
    }
  }
  linalg::Matrix s(k, k);
  {
    const double sigma = predictor_.options.measurement_sigma_ps;
    for (std::size_t a = 0; a < k; ++a) {
      const auto va = static_cast<std::size_t>(survivors[a]);
      for (std::size_t c = 0; c < k; ++c) {
        s(a, c) = linalg::dot(gram.row(va), ut.row(c)) +
                  gram(va, static_cast<std::size_t>(survivors[c]));
      }
      s(a, a) += sigma * sigma;
    }
  }
  linalg::Vector r(k);
  for (std::size_t j = 0; j < k; ++j) {
    const auto slot = static_cast<std::size_t>(survivors[j]);
    r[j] = measured[slot] - predictor_.base.mu_meas[slot] - shift_meas_[slot];
  }
  // One factorization per die serves r, 1 and U^T below; ridge retries are
  // part of it.
  const linalg::SpdFactor sf =
      linalg::spd_factor_robust(s, options_.max_condition);
  if (!sf.info.ok) {
    return gated(die, StreamGate::kIllConditioned, std::move(rp));
  }
  const linalg::Vector w = linalg::chol_solve(sf.factors, r);
  if (!all_finite(w)) {
    return gated(die, StreamGate::kIllConditioned, std::move(rp));
  }

  // Standardized chi-square innovation: r^T S^{-1} r ~ chi^2_k under the
  // model, so z = (t - k)/sqrt(2k) ~ approx N(0, 1).  Any persistent model
  // mismatch — mean shift in any direction, variance growth — inflates t.
  const double t_stat = linalg::dot(r, w);
  const double z =
      (t_stat - static_cast<double>(k)) / std::sqrt(2.0 * static_cast<double>(k));
  // Whitened coherent-shift statistic: u = r^T S^{-1} 1 / sqrt(1^T S^{-1} 1),
  // the matched filter for a shift that moves every slot the same way.  A
  // process shift gives u a persistent mean, die after die; symmetric sensor
  // noise — even the heavy-tailed outlier mixture — cancels.  The quadratic
  // z above cannot make that distinction (any variance inflation looks like
  // drift); u can, so the CUSUM runs on u and z only gates gross outliers.
  // Whitening with the full S matters: the slots share the die's spatial
  // parameters, so per-slot normalization would under-weight exactly the
  // correlated direction a common shift lives in.  Residuals are taken
  // against the *lagged* shift snapshot: the filter absorbs a genuine shift
  // within a few dies, which would starve the CUSUM of evidence; against the
  // snapshot the shift stays visible for a full drift_ref_interval.
  double u_stat = std::numeric_limits<double>::quiet_NaN();
  {
    const linalg::Vector s_inv_ones =
        linalg::chol_solve(sf.factors, linalg::Vector(k, 1.0));
    if (all_finite(s_inv_ones)) {
      double quad = 0.0, proj = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        const auto slot = static_cast<std::size_t>(survivors[j]);
        const double r_ref = measured[slot] - predictor_.base.mu_meas[slot] -
                             drift_ref_meas_[slot];
        quad += s_inv_ones[j];
        proj += r_ref * s_inv_ones[j];
      }
      if (quad > 0.0) u_stat = proj / std::sqrt(quad);
    }
  }
  DieRecord rec;
  rec.die = die;
  rec.prediction_health = rp.health;
  rec.screened_slots = rp.screened.size();
  rec.missing_slots = rp.missing.size();
  rec.innovation_z = z;

  // Drift monitor.  During warmup the observed u_stat values calibrate a
  // median/MAD baseline; once armed, the CUSUM runs on the clipped deviation
  // from that baseline.  It sees gated-but-measurable dies too, so a gross
  // persistent shift cannot hide behind the per-die gate.
  if (std::isfinite(u_stat)) {
    if (!drift_armed_) {
      drift_warmup_.push_back(u_stat);
      if (drift_warmup_.size() >= options_.min_dies_for_drift) {
        drift_mu0_ = util::median(drift_warmup_);
        linalg::Vector dev = drift_warmup_;
        for (double& d : dev) d = std::abs(d - drift_mu0_);
        // MAD -> sigma, floored at the theoretical unit sigma: an over-quiet
        // warmup must not make the monitor trigger-happy.
        drift_sd0_ = std::max(1.4826 * util::median(std::move(dev)), 1.0);
        drift_var0_ = drift_sd0_ * drift_sd0_;
        drift_armed_ = true;
        drift_warmup_.clear();
        drift_warmup_.shrink_to_fit();
      }
    } else {
      const double u_std = (u_stat - drift_mu0_) / drift_sd0_;
      const double uc =
          std::clamp(u_std, -options_.cusum_clip, options_.cusum_clip);
      cusum_pos_ = std::max(0.0, cusum_pos_ + uc - options_.cusum_k);
      cusum_neg_ = std::max(0.0, cusum_neg_ - uc - options_.cusum_k);
      status_.drift_score = std::max(cusum_pos_, cusum_neg_);
      // Robust EWMA baseline tracking (see StreamingOptions::baseline_adapt):
      // in-control deviations update the baseline slowly; adaptation freezes
      // on any single step beyond 3 baseline sigmas AND whenever the CUSUM
      // is past half its threshold — a suspect shift must finish
      // accumulating into the score, not be learned into the baseline.
      if (options_.baseline_adapt > 0.0 && std::abs(u_std) < 3.0 &&
          status_.drift_score <= 0.5 * options_.cusum_h) {
        const double a = options_.baseline_adapt;
        drift_mu0_ += a * (u_stat - drift_mu0_);
        const double dev = u_stat - drift_mu0_;
        drift_var0_ += a * (dev * dev - drift_var0_);
        drift_sd0_ = std::max(std::sqrt(drift_var0_), 1.0);
      }
      if (status_.drift_score > options_.cusum_h && !status_.drift_flagged) {
        status_.drift_flagged = true;
        status_.drift_flag_die = die;
        if (status_.health == StreamHealth::kOk) {
          status_.health = StreamHealth::kDegraded;
        }
        status_.message = "drift flagged at die " + std::to_string(die) +
                          " (CUSUM " + std::to_string(status_.drift_score) +
                          ")";
        util::telemetry::count("core.stream.drift_flags");
      }
    }
  }
  if (!std::isfinite(z) || !std::isfinite(u_stat) ||
      std::abs(z) > options_.innovation_z_max) {
    DieRecord out = gated(die, StreamGate::kInnovationOutlier, std::move(rp));
    out.innovation_z = z;
    return out;
  }

  // Commit the Kalman/RLS update.  With S = L L^T, Y = L^{-1} U^T and
  // X_b = L^{-T} Y = S^{-1} U^T.  The per-path variance downdate
  // v_i^T S^{-1} v_i, v_i = U^T c_i (c_i the i-th column of
  // C = A_meas A_rem^T), is ||Y c_i||^2: priced off the factor with no
  // solve against the n_rem remaining paths.
  const linalg::Matrix y = linalg::chol_forward(sf.factors, ut);
  const linalg::Matrix x = linalg::chol_backward(sf.factors, y);
  // beta <- beta + U w.
  for (std::size_t j = 0; j < k; ++j) {
    linalg::axpy(w[j], ut.row(j), beta_);
  }
  // alpha <- alpha/lambda; K <- K/lambda + U X_b, symmetrized against drift
  // of the two triangles.
  alpha_ *= inv_lambda;
  if (inv_lambda != 1.0) k_ *= inv_lambda;
  for (std::size_t i = 0; i < n_meas; ++i) {
    for (std::size_t l = 0; l <= i; ++l) {
      double acc = 0.0;
      for (std::size_t j = 0; j < k; ++j) acc += ut(j, i) * x(j, l);
      const double val = 0.5 * (k_(i, l) + k_(l, i)) + acc;
      k_(i, l) = val;
      k_(l, i) = val;
    }
  }
  // q_i <- q_i/lambda - ||Y c_i||^2, clamped against roundoff.  The sum of
  // squares is as accurate as solving for S^{-1} v_i; the equal quadratic
  // form c_i^T (U X_b) c_i loses about a digit to cancellation.
  const std::size_t n_rem = q_.size();
  linalg::Vector down(n_rem, 0.0);
  linalg::Vector yc(n_rem);
  for (std::size_t j = 0; j < k; ++j) {
    std::fill(yc.begin(), yc.end(), 0.0);
    for (std::size_t l = 0; l < n_meas; ++l) {
      linalg::axpy(y(j, l), predictor_.cross.row(l), yc);
    }
    for (std::size_t i = 0; i < n_rem; ++i) down[i] += yc[i] * yc[i];
  }
  for (std::size_t i = 0; i < n_rem; ++i) {
    q_[i] = std::max(0.0, q_[i] * inv_lambda - down[i]);
  }

  // A non-finite posterior means the stream state is lost for good: latch
  // unusable so predictions degrade to the batch robust predictor.
  if (!std::isfinite(alpha_) || !all_finite(beta_) || !all_finite(q_) ||
      !all_finite(k_.data())) {
    mark_unusable("non-finite posterior after die " + std::to_string(die));
    DieRecord out = gated(die, StreamGate::kIllConditioned, std::move(rp));
    out.innovation_z = z;
    return out;
  }

  if (sf.info.regularized) {
    rec.ridge = sf.info.ridge;
    status_.last_ridge = rec.ridge;
    ++status_.ridge_events;
    if (status_.health == StreamHealth::kOk) {
      status_.health = StreamHealth::kDegraded;
      status_.message = "innovation system ill-conditioned at die " +
                        std::to_string(die) + "; ridge " +
                        std::to_string(rec.ridge) + " applied";
    }
  }

  rec.accepted = true;
  ++status_.dies_accepted;
  util::telemetry::count("core.stream.dies_accepted");
  refresh_shift_cache();
  if (++drift_ref_age_ >= options_.drift_ref_interval) {
    // Hold the snapshot while the CUSUM is elevated: refreshing would fold
    // the filter's partial adaptation of the suspect shift into the
    // reference and wipe the accumulating evidence.  Only an at-rest score
    // (or a latched flag) refreshes; on a clean stream the score touches
    // zero every few dies, so staleness stays bounded in practice.
    if (status_.drift_score <= 2.0 * options_.cusum_k ||
        status_.drift_flagged) {
      drift_ref_age_ = 0;
      drift_ref_meas_ = shift_meas_;
    }
  }

  // Posterior-conditioning audit on every accepted die: a collapsed
  // covariance gets a reported floor.
  audit_covariance();

  const AdaptiveGuardband g = adaptive_guardband(
      base_sigma_, q_, predictor_.base.mu_rem, options_.guard_kappa);
  status_.guardband = g.eps;

  rec.predicted = std::move(rp.values);
  rec.drift_score = status_.drift_score;
  rec.drift_flagged = status_.drift_score > options_.cusum_h;
  rec.guardband = status_.guardband;
  status_.gate_counts[static_cast<std::size_t>(StreamGate::kNone)]++;
  publish_telemetry();
  return rec;
}

}  // namespace repro::core
