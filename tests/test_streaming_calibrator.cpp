#include "core/streaming_calibrator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "circuit/generator.h"
#include "circuit/placement.h"
#include "core/guardband.h"
#include "core/monte_carlo.h"
#include "core/subset_select.h"
#include "linalg/eigen_sym.h"
#include "linalg/gemm.h"
#include "linalg/solve.h"
#include "timing/segments.h"
#include "util/rng.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"
#include "variation/variation_model.h"

namespace repro::core {
namespace {

linalg::Matrix random_matrix(std::size_t r, std::size_t c,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  linalg::Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.normal();
  }
  return m;
}

// Synthetic-model helpers: a small path/parameter system with a known
// systematic shift, so convergence is checkable against ground truth.
struct Synthetic {
  linalg::Matrix a;
  linalg::Vector mu;
  RobustPredictor predictor;

  Synthetic(std::size_t n_paths, std::size_t m, std::size_t n_rep,
            std::uint64_t seed)
      : a(random_matrix(n_paths, m, seed)), mu(n_paths, 500.0) {
    std::vector<int> rep;
    for (std::size_t i = 0; i < n_rep; ++i) rep.push_back(static_cast<int>(i));
    RobustOptions opt;
    opt.measurement_sigma_ps = 1.0;
    predictor = make_robust_path_predictor(a, mu, rep, {}, opt);
  }

  // Measured-slot delays of die `die` whose parameters are shift + v,
  // v ~ N(0, I) from the die's own stream.
  linalg::Vector die_measurements(std::uint64_t die,
                                  std::span<const double> shift) const {
    util::Rng rng = util::Rng::stream(0xd1e5, die);
    linalg::Vector x(a.cols());
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = rng.normal() + (shift.empty() ? 0.0 : shift[i]);
    }
    const auto& meas = predictor.base.measured_paths;
    linalg::Vector y(meas.size());
    for (std::size_t k = 0; k < meas.size(); ++k) {
      const auto p = static_cast<std::size_t>(meas[k]);
      y[k] = mu[p] + linalg::dot(a.row(p), x);
    }
    return y;
  }
};

// ---------------------------------------------------------------------------
// Failure contract: never throws, structured degradation.
// ---------------------------------------------------------------------------

TEST(StreamingCalibrator, UnusableBatchPredictorMakesUnusableStream) {
  const linalg::Matrix a = random_matrix(6, 10, 21);
  const linalg::Vector mu(6, 100.0);
  const RobustPredictor failed = make_robust_path_predictor(a, mu, {});
  ASSERT_FALSE(failed.status.usable());

  StreamingCalibrator cal(failed);
  EXPECT_EQ(cal.status().health, StreamHealth::kUnusable);
  EXPECT_FALSE(cal.status().message.empty());

  // Every die quarantines with a structured gate; predictions are the batch
  // predictor's nominal fallback.  No throw anywhere.
  const linalg::Vector meas(3, 100.0);
  DieRecord rec;
  EXPECT_NO_THROW(rec = cal.observe(0, meas));
  EXPECT_FALSE(rec.accepted);
  EXPECT_EQ(rec.gate, StreamGate::kStreamUnusable);
  EXPECT_EQ(cal.status().dies_quarantined, 1u);
  const RobustPrediction pr = cal.predict(meas);
  EXPECT_EQ(pr.health, PredictorHealth::kFailed);
}

TEST(StreamingCalibrator, MalformedDiesQuarantineWithStructuredReason) {
  Synthetic s(20, 12, 5, 22);
  ASSERT_TRUE(s.predictor.status.usable());
  StreamingCalibrator cal(s.predictor);
  ASSERT_EQ(cal.status().health, StreamHealth::kOk);

  // Wrong measurement count.
  DieRecord rec = cal.observe(0, linalg::Vector{1.0, 2.0});
  EXPECT_EQ(rec.gate, StreamGate::kSizeMismatch);
  // All slots invalid on this die.
  const linalg::Vector meas = s.die_measurements(0, {});
  const std::vector<char> none(meas.size(), 0);
  rec = cal.observe(1, meas, none);
  EXPECT_FALSE(rec.accepted);
  EXPECT_EQ(rec.gate, StreamGate::kNoUsableSlots);
  // All-NaN measurements.
  const linalg::Vector nans(meas.size(),
                            std::numeric_limits<double>::quiet_NaN());
  EXPECT_NO_THROW(rec = cal.observe(2, nans));
  EXPECT_FALSE(rec.accepted);

  EXPECT_EQ(cal.status().dies_seen, 3u);
  EXPECT_EQ(cal.status().dies_accepted, 0u);
  EXPECT_EQ(cal.status().dies_quarantined +
                cal.status().dies_rejected, 3u);
  // Gated dies leave the state untouched.
  EXPECT_EQ(cal.status().shift_norm, 0.0);

  // A sane die afterwards still updates: the stream survived the faults.
  rec = cal.observe(3, s.die_measurements(3, {}));
  EXPECT_TRUE(rec.accepted);
  EXPECT_EQ(cal.status().dies_accepted, 1u);
}

TEST(StreamingCalibrator, GrossWholeDieOutlierIsRejectedNotAbsorbed) {
  Synthetic s(24, 14, 6, 23);
  StreamingCalibrator cal(s.predictor);
  for (std::uint64_t die = 0; die < 20; ++die) {
    cal.observe(die, s.die_measurements(die, {}));
  }
  const double shift_before = cal.status().shift_norm;
  // A die whose every slot reads absurdly high (tester meltdown): either the
  // robust screening or the whole-die innovation gate must reject it.
  linalg::Vector bad = s.die_measurements(20, {});
  for (double& v : bad) v += 3000.0;
  const DieRecord rec = cal.observe(20, bad);
  EXPECT_FALSE(rec.accepted);
  EXPECT_TRUE(rec.gate == StreamGate::kExcessScreening ||
              rec.gate == StreamGate::kInnovationOutlier);
  // The rejected die did not move the state.
  EXPECT_EQ(cal.status().shift_norm, shift_before);
}

// ---------------------------------------------------------------------------
// Clean-stream behavior: acceptance, guard-band monotonicity, no drift flag.
// ---------------------------------------------------------------------------

TEST(StreamingCalibrator, CleanStreamTightensGuardbandMonotonically) {
  Synthetic s(30, 16, 6, 24);
  StreamingCalibrator cal(s.predictor);
  const double initial = cal.guardband();
  ASSERT_GT(initial, 0.0);

  double prev = initial;
  std::size_t accepted = 0;
  for (std::uint64_t die = 0; die < 120; ++die) {
    const DieRecord rec = cal.observe(die, s.die_measurements(die, {}));
    // Non-inflating at every die (gated dies keep the previous value).
    EXPECT_LE(rec.guardband, prev + 1e-12);
    prev = rec.guardband;
    if (rec.accepted) ++accepted;
  }
  EXPECT_GT(accepted, 100u);  // the gate passes a clean stream
  EXPECT_LT(cal.guardband(), 0.95 * initial);  // and information accumulated
  EXPECT_FALSE(cal.status().drift_flagged);
  EXPECT_EQ(cal.status().drift_flag_die, kNoDie);
  // Posterior variances stay non-negative.
  for (double q : cal.shift_variance()) EXPECT_GE(q, 0.0);
}

TEST(StreamingCalibrator, LearnsTheMeasurableImageOfASystematicShift) {
  Synthetic s(30, 16, 6, 25);
  StreamingCalibrator cal(s.predictor);

  // Common-mode systematic shift of one sigma total.
  const std::size_t m = s.a.cols();
  linalg::Vector shift(m, 1.0 / std::sqrt(static_cast<double>(m)));
  for (std::uint64_t die = 0; die < 300; ++die) {
    cal.observe(die, s.die_measurements(die, shift));
  }
  EXPECT_GT(cal.status().dies_accepted, 200u);
  EXPECT_GT(cal.status().shift_norm, 0.0);

  // The shift is only identifiable through the measured rows: compare images
  // under A_meas, not the raw parameter vectors.
  const linalg::Vector want = linalg::matvec(s.predictor.a_meas, shift);
  const linalg::Vector got = linalg::matvec(s.predictor.a_meas, cal.shift());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    num += (got[i] - want[i]) * (got[i] - want[i]);
    den += want[i] * want[i];
  }
  ASSERT_GT(den, 0.0);
  EXPECT_LT(std::sqrt(num / den), 0.35);
}

// ---------------------------------------------------------------------------
// Drift detection: flags an injected shift, quiet on a clean stream.
// ---------------------------------------------------------------------------

TEST(StreamingCalibrator, CusumFlagsInjectedShiftQuietOnClean) {
  Synthetic s(30, 16, 6, 26);

  // Clean stream: no flag over a long run.
  StreamingCalibrator clean(s.predictor);
  for (std::uint64_t die = 0; die < 200; ++die) {
    clean.observe(die, s.die_measurements(die, {}));
  }
  EXPECT_FALSE(clean.status().drift_flagged);

  // Same stream with a mid-stream coherent shift: flagged, and quickly.  The
  // detector targets drift whose measurable image moves all slots the same
  // way (a fab excursion raises every delay), so inject the min-norm
  // parameter shift whose image is a uniform +6ps per measured slot.  A
  // common-mode *parameter* shift of this random Gaussian A would have a
  // sign-random image — coherent noise the detector rightly ignores.
  StreamingCalibrator drifted(s.predictor);
  const std::size_t start = 100;
  const linalg::Matrix g = linalg::gram(s.predictor.a_meas);
  linalg::Vector ones(g.rows(), 6.0);
  linalg::SpdSolveInfo info;
  const linalg::Vector w = linalg::spd_solve_robust(g, ones, &info);
  ASSERT_TRUE(info.ok);
  linalg::Vector shift(s.a.cols(), 0.0);
  for (std::size_t j = 0; j < g.rows(); ++j) {
    const auto row = s.predictor.a_meas.row(j);
    for (std::size_t i = 0; i < shift.size(); ++i) {
      shift[i] += row[i] * w[j];
    }
  }
  for (std::uint64_t die = 0; die < 200; ++die) {
    drifted.observe(
        die, s.die_measurements(die, die >= start ? std::span<const double>(shift)
                                                  : std::span<const double>()));
  }
  EXPECT_TRUE(drifted.status().drift_flagged);
  ASSERT_NE(drifted.status().drift_flag_die, kNoDie);
  EXPECT_GE(drifted.status().drift_flag_die, start);
  EXPECT_LE(drifted.status().drift_flag_die, start + 50);
  EXPECT_GT(drifted.status().drift_score, clean.status().drift_score);
}

// The min-norm parameter shift raising every measured slot by `ps`.
linalg::Vector uniform_slot_shift(const RobustPredictor& p, double ps) {
  linalg::SpdSolveInfo info;
  const linalg::Vector w = linalg::spd_solve_robust(
      p.gram_meas, linalg::Vector(p.a_meas.rows(), ps), &info);
  return linalg::matvec_transposed(p.a_meas, w);
}

TEST(StreamingCalibrator, GatedRecordsReportTheScoreAtThisDieNotTheLatch) {
  // A drift burst (dies 100..119) with malformed and meltdown dies mixed in:
  // every record's drift_flagged is "score above cusum_h at this die", while
  // the status flag latches at the first crossing and holds after the score
  // has decayed.
  Synthetic s(30, 16, 6, 27);
  StreamingCalibrator cal(s.predictor);
  const linalg::Vector shift = uniform_slot_shift(s.predictor, 6.0);
  const double h = cal.options().cusum_h;
  std::size_t gated_after_flag = 0, gated_below_h_after_flag = 0;
  for (std::uint64_t die = 0; die < 400; ++die) {
    linalg::Vector y = s.die_measurements(
        die, die >= 100 && die < 120 ? std::span<const double>(shift)
                                     : std::span<const double>());
    if (die % 5 == 1) y.push_back(0.0);  // size mismatch
    if (die % 7 == 3) {
      for (double& v : y) v = std::numeric_limits<double>::quiet_NaN();
    }
    if (die % 11 == 5) {
      for (double& v : y) v += 3000.0;
    }
    const bool was_flagged = cal.status().drift_flagged;
    const DieRecord rec = cal.observe(die, y);
    EXPECT_EQ(rec.drift_flagged, rec.drift_score > h) << "die " << die;
    if (was_flagged) {
      EXPECT_TRUE(cal.status().drift_flagged) << "die " << die;
      if (!rec.accepted) {
        ++gated_after_flag;
        if (rec.drift_score <= h) ++gated_below_h_after_flag;
      }
    }
  }
  ASSERT_TRUE(cal.status().drift_flagged);
  EXPECT_GT(gated_after_flag, 0u);
  // Gated dies below h after the latch: where the two meanings differ.
  EXPECT_GT(gated_below_h_after_flag, 0u);
}

std::uint64_t counter_value(std::string_view name) {
  for (const auto& c : util::telemetry::snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// Robust solves (and ridge searches) observe() runs beyond the screening
// gate, which cal.predict() replays on the same state.
struct SolveCounts {
  std::uint64_t calls = 0;
  std::uint64_t ridges = 0;
};
SolveCounts observe_own_solves(StreamingCalibrator& cal, std::size_t die,
                               const linalg::Vector& y, DieRecord& rec) {
  const auto calls = [] { return counter_value("linalg.spd_solve.calls"); };
  const auto ridges = [] {
    return counter_value("linalg.spd_solve.ridge_fallbacks");
  };
  const std::uint64_t c0 = calls(), r0 = ridges();
  (void)cal.predict(y);
  const std::uint64_t c1 = calls(), r1 = ridges();
  rec = cal.observe(die, y);
  return {calls() - c1 - (c1 - c0), ridges() - r1 - (r1 - r0)};
}

TEST(StreamingCalibrator, FactorsTheInnovationSystemOncePerAcceptedDie) {
  const bool was_enabled = util::telemetry::enabled();
  util::telemetry::set_enabled(true);
  Synthetic s(30, 16, 6, 28);
  StreamingCalibrator cal(s.predictor);
  std::size_t accepted = 0;
  for (std::uint64_t die = 0; die < 40; ++die) {
    DieRecord rec;
    const SolveCounts own =
        observe_own_solves(cal, die, s.die_measurements(die, {}), rec);
    if (!rec.accepted) continue;
    ++accepted;
    // One factorization serves r, 1 and U^T.
    EXPECT_EQ(own.calls, 1u) << "die " << die;
    EXPECT_EQ(own.ridges, 0u) << "die " << die;
  }
  EXPECT_GT(accepted, 30u);
  util::telemetry::set_enabled(was_enabled);
}

TEST(StreamingCalibrator, RidgedDieRecordsOneRidge) {
  // A condition limit below cond(S) forces the first die's innovation system
  // onto the ridge path, while the posterior stays well inside it (no
  // covariance floor).
  const bool was_enabled = util::telemetry::enabled();
  util::telemetry::set_enabled(true);
  Synthetic s(30, 16, 6, 28);
  StreamingOptions opt;
  opt.max_condition = 2.0;
  StreamingCalibrator cal(s.predictor, opt);
  DieRecord rec;
  const SolveCounts own =
      observe_own_solves(cal, 0, s.die_measurements(0, {}), rec);
  ASSERT_TRUE(rec.accepted);
  EXPECT_GT(rec.ridge, 0.0);
  EXPECT_EQ(cal.status().last_ridge, rec.ridge);
  EXPECT_EQ(cal.status().ridge_events, 1u);
  EXPECT_LE(cal.status().info_condition, opt.max_condition);
  EXPECT_EQ(own.calls, 1u);
  EXPECT_EQ(own.ridges, 1u);  // one ridge search, not one per solve
  util::telemetry::set_enabled(was_enabled);
}

// ---------------------------------------------------------------------------
// The measured-space state against the textbook recursion.
// ---------------------------------------------------------------------------

// The covariance-form Kalman/RLS recursion with a dense m x m posterior P,
// gated exactly as StreamingCalibrator::observe documents: screening gate on
// shift-corrected measurements, innovation solve, drift CUSUM on the lagged
// shift snapshot, innovation gate, update, exact 2-norm covariance audit.
class DenseReference {
 public:
  // `a` is the path-sensitivity matrix the predictor was built from.
  DenseReference(const RobustPredictor& p, const linalg::Matrix& a,
                 const StreamingOptions& o)
      : p_(p), a_rem_(a.select_rows(p.base.remaining)), o_(o) {
    const std::size_t m = p.a_meas.cols();
    b_.assign(m, 0.0);
    cov_ = linalg::Matrix(m, m);
    for (std::size_t i = 0; i < m; ++i) cov_(i, i) = 1.0 / o.prior_precision;
    for (std::size_t i = 0; i < a_rem_.rows(); ++i) {
      q_.push_back(cov_(0, 0) * linalg::dot(a_rem_.row(i), a_rem_.row(i)));
    }
    sigma_ = p.error_sigmas();
    shift_meas_ = linalg::matvec(p.a_meas, b_);
    drift_ref_ = shift_meas_;
    update_guardband();
  }

  // Returns the gate (kNone when accepted).
  StreamGate observe(std::span<const double> measured,
                     std::span<const char> valid) {
    const std::size_t n_meas = p_.base.mu_meas.size();
    linalg::Vector corrected(measured.begin(), measured.end());
    for (std::size_t i = 0; i < n_meas; ++i) corrected[i] -= shift_meas_[i];
    const RobustPrediction rp = p_.predict(corrected, valid);
    if (rp.health == PredictorHealth::kFailed) {
      return count(StreamGate::kPathologicalSolve);
    }
    std::vector<int> v;
    for (std::size_t i = 0; i < n_meas; ++i) {
      const int slot = static_cast<int>(i);
      if (!contains(rp.missing, slot) && !contains(rp.screened, slot)) {
        v.push_back(slot);
      }
    }
    const double usable = static_cast<double>(n_meas - rp.missing.size());
    if (v.empty() ||
        static_cast<double>(rp.screened.size()) >
            o_.max_screened_fraction * usable) {
      return count(StreamGate::kExcessScreening);
    }
    const std::size_t k = v.size();
    const double inv_lambda = 1.0 / o_.forgetting;
    const linalg::Matrix a_v = p_.a_meas.select_rows(v);
    linalg::Matrix u = linalg::multiply_bt(cov_, a_v);
    u *= inv_lambda;
    linalg::Matrix s = linalg::multiply(a_v, u);
    s += p_.gram_meas.select_rows(v).select_cols(v);
    const double sig = p_.options.measurement_sigma_ps;
    for (std::size_t i = 0; i < k; ++i) s(i, i) += sig * sig;
    linalg::Vector r(k);
    for (std::size_t j = 0; j < k; ++j) {
      const auto slot = static_cast<std::size_t>(v[j]);
      r[j] = measured[slot] - p_.base.mu_meas[slot] - shift_meas_[slot];
    }
    linalg::SpdSolveInfo info;
    const linalg::Vector w = solve(s, r, info);
    if (!info.ok) return count(StreamGate::kIllConditioned);
    const double z = (linalg::dot(r, w) - static_cast<double>(k)) /
                     std::sqrt(2.0 * static_cast<double>(k));
    linalg::SpdSolveInfo ones_info;
    const linalg::Vector s1 = solve(s, linalg::Vector(k, 1.0), ones_info);
    double quad = 0.0, proj = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      const auto slot = static_cast<std::size_t>(v[j]);
      quad += s1[j];
      const double r_ref =
          measured[slot] - p_.base.mu_meas[slot] - drift_ref_[slot];
      proj += r_ref * s1[j];
    }
    monitor(proj / std::sqrt(quad));
    if (std::abs(z) > o_.innovation_z_max) {
      return count(StreamGate::kInnovationOutlier);
    }

    const linalg::Matrix vv = linalg::multiply(a_rem_, u);
    linalg::SpdSolveInfo info_b, info_q;
    const linalg::Matrix xb = solve(s, u.transposed(), info_b);
    const linalg::Matrix xq = solve(s, vv.transposed(), info_q);
    const linalg::Vector db = linalg::matvec(u, w);
    for (std::size_t i = 0; i < b_.size(); ++i) b_[i] += db[i];
    cov_ *= inv_lambda;
    cov_ -= linalg::multiply(u, xb);
    cov_ = 0.5 * (cov_ + cov_.transposed());
    for (std::size_t i = 0; i < q_.size(); ++i) {
      const double down = linalg::dot(vv.row(i), xq.column(i));
      q_[i] = std::max(0.0, q_[i] * inv_lambda - down);
    }
    if (info.regularized || info_b.regularized) ++ridge_events_;
    shift_meas_ = linalg::matvec(p_.a_meas, b_);
    if (++drift_ref_age_ >= o_.drift_ref_interval &&
        (drift_score_ <= 2.0 * o_.cusum_k || drift_flagged_)) {
      drift_ref_age_ = 0;
      drift_ref_ = shift_meas_;
    }
    // Exact 2-norm condition of the dense P, floored like the calibrator.
    const linalg::Vector ev = linalg::eigen_sym(cov_).values;
    const double inf = std::numeric_limits<double>::infinity();
    const double cond = ev.front() > 0.0 ? ev.back() / ev.front() : inf;
    if (!(cond <= o_.max_condition)) {
      const double floor =
          std::max(std::abs(ev.back()) / o_.max_condition, 1e-300) * 10.0;
      for (std::size_t i = 0; i < cov_.rows(); ++i) cov_(i, i) += floor;
      for (std::size_t i = 0; i < q_.size(); ++i) {
        q_[i] += floor * linalg::dot(a_rem_.row(i), a_rem_.row(i));
      }
      ++ridge_events_;
      ++floors_;
    }
    update_guardband();
    return count(StreamGate::kNone);
  }

  const linalg::Vector& b() const { return b_; }
  const linalg::Vector& q() const { return q_; }
  double guardband() const { return guardband_; }
  double drift_score() const { return drift_score_; }
  std::size_t ridge_events() const { return ridge_events_; }
  std::size_t floors() const { return floors_; }
  const std::array<std::size_t, kNumStreamGates>& gate_counts() const {
    return gates_;
  }

 private:
  static bool contains(const std::vector<int>& v, int x) {
    return std::find(v.begin(), v.end(), x) != v.end();
  }
  static double median(linalg::Vector v) {
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
  }
  template <class Rhs>
  Rhs solve(const linalg::Matrix& s, const Rhs& rhs,
            linalg::SpdSolveInfo& info) const {
    return linalg::spd_solve_robust(s, rhs, &info, o_.max_condition);
  }
  StreamGate count(StreamGate g) {
    ++gates_[static_cast<std::size_t>(g)];
    return g;
  }
  void update_guardband() {
    guardband_ =
        adaptive_guardband(sigma_, q_, p_.base.mu_rem, o_.guard_kappa).eps;
  }
  void monitor(double u) {
    if (!armed_) {
      warm_.push_back(u);
      if (warm_.size() < o_.min_dies_for_drift) return;
      mu0_ = median(warm_);
      for (double& d : warm_) d = std::abs(d - mu0_);
      sd0_ = std::max(1.4826 * median(warm_), 1.0);
      var0_ = sd0_ * sd0_;
      armed_ = true;
      return;
    }
    const double us = (u - mu0_) / sd0_;
    const double uc = std::clamp(us, -o_.cusum_clip, o_.cusum_clip);
    pos_ = std::max(0.0, pos_ + uc - o_.cusum_k);
    neg_ = std::max(0.0, neg_ - uc - o_.cusum_k);
    drift_score_ = std::max(pos_, neg_);
    if (std::abs(us) < 3.0 && drift_score_ <= 0.5 * o_.cusum_h) {
      mu0_ += o_.baseline_adapt * (u - mu0_);
      const double dev = u - mu0_;
      var0_ += o_.baseline_adapt * (dev * dev - var0_);
      sd0_ = std::max(std::sqrt(var0_), 1.0);
    }
    if (drift_score_ > o_.cusum_h) drift_flagged_ = true;
  }

  const RobustPredictor& p_;
  linalg::Matrix a_rem_;
  StreamingOptions o_;
  linalg::Vector b_, q_, sigma_, shift_meas_, drift_ref_, warm_;
  linalg::Matrix cov_;
  double guardband_ = 0.0, drift_score_ = 0.0, pos_ = 0.0, neg_ = 0.0;
  double mu0_ = 0.0, sd0_ = 1.0, var0_ = 1.0;
  bool armed_ = false, drift_flagged_ = false;
  std::size_t drift_ref_age_ = 0, ridge_events_ = 0, floors_ = 0;
  std::array<std::size_t, kNumStreamGates> gates_{};
};

// Feeds the calibrator and the dense reference the same faulty stream,
// drifting from die `dies / 2`, and compares them die by die; `floors` gets
// the reference's covariance-floor count.
void expect_matches_dense_reference(const StreamingOptions& opt,
                                    std::uint64_t dies, std::size_t& floors) {
  Synthetic s(30, 16, 6, 27);
  StreamingCalibrator cal(s.predictor, opt);
  DenseReference ref(s.predictor, s.a, opt);
  const std::size_t m = s.a.cols();
  // The min-norm shift raising every measured slot by 6 ps (see
  // CusumFlagsInjectedShiftQuietOnClean), so the CUSUM has work to do.
  linalg::SpdSolveInfo info;
  const linalg::Vector w = linalg::spd_solve_robust(
      s.predictor.gram_meas, linalg::Vector(s.predictor.a_meas.rows(), 6.0),
      &info);
  const linalg::Vector shift = linalg::matvec_transposed(s.predictor.a_meas, w);
  for (std::uint64_t die = 0; die < dies; ++die) {
    linalg::Vector y = s.die_measurements(
        die, die >= dies / 2 ? std::span<const double>(shift)
                             : std::span<const double>());
    // Faults: a dropped slot, an outlier reading, a whole-die meltdown.
    std::vector<char> valid(y.size(), 1);
    if (die % 7 == 3) valid[die % y.size()] = 0;
    if (die % 11 == 5) y[(die + 2) % y.size()] += 60.0;
    if (die % 37 == 20) {
      for (double& v : y) v += 3000.0;
    }
    const DieRecord rec = cal.observe(die, y, valid);
    const StreamGate want = ref.observe(y, valid);
    ASSERT_EQ(rec.gate, want) << "die " << die;
    EXPECT_NEAR(rec.guardband, ref.guardband(), 1e-9 * ref.guardband()) << die;
    EXPECT_NEAR(rec.drift_score, ref.drift_score(), 1e-8) << die;
    double bn = 0.0, bd = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      bd = std::max(bd, std::abs(cal.shift()[i] - ref.b()[i]));
      bn = std::max(bn, std::abs(ref.b()[i]));
    }
    EXPECT_LE(bd, 1e-9 * (1.0 + bn)) << die;
    for (std::size_t i = 0; i < ref.q().size(); ++i) {
      EXPECT_NEAR(cal.shift_variance()[i], ref.q()[i], 1e-9 * ref.q()[i])
          << "die " << die << " path " << i;
    }
  }
  EXPECT_EQ(cal.status().gate_counts, ref.gate_counts());
  EXPECT_EQ(cal.status().ridge_events, ref.ridge_events());
  EXPECT_GT(cal.status().dies_accepted, dies / 2);
  EXPECT_GT(cal.status().dies_rejected, 0u);
  EXPECT_TRUE(cal.status().drift_flagged);
  floors = ref.floors();
}

TEST(StreamingCalibrator, MatchesDenseReferenceWithoutForgetting) {
  StreamingOptions opt;
  std::size_t floors = 1;
  expect_matches_dense_reference(opt, 240, floors);
  EXPECT_EQ(floors, 0u);
}

TEST(StreamingCalibrator, MatchesDenseReferenceWithForgetting) {
  // With lambda < 1 the variance of the unmeasured directions grows as
  // lambda^-n, and both representations lose about log10(lambda^-n) digits
  // to cancellation; 130 dies at 0.9 keep that growth below 1e6.
  StreamingOptions opt;
  opt.forgetting = 0.9;
  std::size_t floors = 1;
  expect_matches_dense_reference(opt, 130, floors);
  EXPECT_EQ(floors, 0u);
}

TEST(StreamingCalibrator, MatchesDenseReferenceThroughCovarianceFloors) {
  StreamingOptions opt;
  opt.max_condition = 20.0;
  std::size_t floors = 0;
  expect_matches_dense_reference(opt, 240, floors);
  EXPECT_GT(floors, 0u);
}

// ---------------------------------------------------------------------------
// Streaming Monte-Carlo evaluation: determinism and batch parity.
// ---------------------------------------------------------------------------

struct Fixture {
  circuit::Netlist nl;
  circuit::GateLibrary lib;
  std::unique_ptr<timing::TimingGraph> tg;
  std::vector<timing::Path> paths;
  timing::SegmentDecomposition dec;
  std::unique_ptr<variation::SpatialModel> spatial;
  std::unique_ptr<variation::VariationModel> model;

  explicit Fixture(std::size_t max_paths = 80)
      : nl(circuit::generate_benchmark("s1196")) {
    circuit::place(nl);
    tg = std::make_unique<timing::TimingGraph>(nl, lib);
    paths = timing::enumerate_worst_paths(*tg, {.max_paths = max_paths});
    dec = timing::extract_segments(nl, paths);
    spatial = std::make_unique<variation::SpatialModel>(3);
    model = std::make_unique<variation::VariationModel>(
        *tg, *spatial, paths, dec, variation::VariationOptions{});
  }
};

RobustPredictor fixture_predictor(const Fixture& f, std::size_t n_rep,
                                  const FaultSpec& spec) {
  const SubsetSelector sel =
      make_subset_selector(f.model->a(), linalg::gram(f.model->a()));
  const auto order = sel.select(std::min(sel.rank(), n_rep + 8));
  std::vector<int> rep(order.begin(),
                       order.begin() + static_cast<std::ptrdiff_t>(
                                           std::min(n_rep, order.size())));
  RobustOptions opt;
  opt.backup_order = order;
  opt.measurement_sigma_ps = expected_noise_sigma(spec, f.model->mu_paths());
  return make_robust_path_predictor(f.model->a(), f.model->mu_paths(), rep,
                                    {}, opt);
}

TEST(StreamingMonteCarlo, BitIdenticalAcrossThreadCounts) {
  Fixture f;
  StreamingMcOptions opt;
  opt.mc.samples = 200;
  // Small chunks: even at 8 threads the stream spans several generation
  // waves.
  opt.mc.chunk = 8;
  opt.mc.seed = 321;
  opt.faults = without_dead_slots(default_fault_spec());
  opt.drift.start_die = 120;
  opt.drift.magnitude = 2.0;
  const RobustPredictor p = fixture_predictor(f, 8, opt.faults);
  ASSERT_TRUE(p.status.usable());

  const std::size_t saved_threads = util::thread_count();
  std::vector<StreamingMcMetrics> runs;
  for (std::size_t nt : {1u, 4u, 8u}) {
    util::set_threads(nt);
    runs.push_back(evaluate_predictor_streaming(*f.model, p, opt));
  }
  util::set_threads(saved_threads);
  for (std::size_t k = 1; k < runs.size(); ++k) {
    // Exact equality: per-die RNG streams generated in parallel waves,
    // sequential calibration pass in strict die order.
    EXPECT_EQ(runs[0].metrics.e1, runs[k].metrics.e1);
    EXPECT_EQ(runs[0].metrics.e2, runs[k].metrics.e2);
    EXPECT_EQ(runs[0].status.dies_accepted, runs[k].status.dies_accepted);
    EXPECT_EQ(runs[0].status.dies_rejected, runs[k].status.dies_rejected);
    EXPECT_EQ(runs[0].status.drift_score, runs[k].status.drift_score);
    EXPECT_EQ(runs[0].drift_flag_die, runs[k].drift_flag_die);
    EXPECT_EQ(runs[0].final_guardband, runs[k].final_guardband);
    ASSERT_EQ(runs[0].guardband_trajectory.size(),
              runs[k].guardband_trajectory.size());
    for (std::size_t i = 0; i < runs[0].guardband_trajectory.size(); ++i) {
      EXPECT_EQ(runs[0].guardband_trajectory[i],
                runs[k].guardband_trajectory[i]);
      EXPECT_EQ(runs[0].drift_trajectory[i], runs[k].drift_trajectory[i]);
    }
  }
}

TEST(StreamingMonteCarlo, CleanStreamMatchesBatchWithinTolerance) {
  Fixture f;
  FaultyMcOptions batch_opt;
  batch_opt.mc.samples = 300;
  batch_opt.mc.seed = 99;
  batch_opt.faults = without_dead_slots(default_fault_spec());
  const RobustPredictor p = fixture_predictor(f, 8, batch_opt.faults);
  ASSERT_TRUE(p.status.usable());
  const FaultyMcMetrics batch =
      evaluate_predictor_under_faults(*f.model, p, batch_opt);

  StreamingMcOptions opt;
  opt.mc = batch_opt.mc;  // same dies, same fault schedules
  opt.faults = batch_opt.faults;
  const StreamingMcMetrics stream =
      evaluate_predictor_streaming(*f.model, p, opt);

  // The acceptance bound from ISSUE 7: streaming e1 within 1.1x of batch on
  // the clean (drift-free) stream, guard-band monotone, no drift flag.
  ASSERT_GT(batch.metrics.e1, 0.0);
  EXPECT_LE(stream.metrics.e1, 1.1 * batch.metrics.e1);
  EXPECT_TRUE(stream.guardband_monotone);
  EXPECT_LT(stream.final_guardband, stream.initial_guardband);
  EXPECT_FALSE(stream.status.drift_flagged);
  EXPECT_GT(stream.status.dies_accepted, opt.mc.samples / 2);
}

TEST(StreamingMonteCarlo, InjectedDriftIsFlaggedWithinBudget) {
  Fixture f;
  StreamingMcOptions opt;
  opt.mc.samples = 300;
  opt.mc.seed = 7;
  opt.faults = without_dead_slots(default_fault_spec());
  opt.drift.start_die = 150;
  opt.drift.magnitude = 3.0;
  const RobustPredictor p = fixture_predictor(f, 8, opt.faults);
  ASSERT_TRUE(p.status.usable());

  const StreamingMcMetrics m = evaluate_predictor_streaming(*f.model, p, opt);
  EXPECT_TRUE(m.status.drift_flagged);
  ASSERT_NE(m.drift_flag_die, kNoDie);
  EXPECT_GE(m.drift_flag_die, opt.drift.start_die);
  EXPECT_LE(m.drift_flag_die, opt.drift.start_die + 60);
  ASSERT_EQ(m.drift_trajectory.size(), opt.mc.samples);
  // The CUSUM was quiet before the shift started.
  double pre = 0.0;
  for (std::size_t i = 0; i < opt.drift.start_die; ++i) {
    pre = std::max(pre, m.drift_trajectory[i]);
  }
  EXPECT_LT(pre, opt.stream.cusum_h);
}

TEST(StreamingMonteCarlo, DegenerateInputsAreDefined) {
  Fixture f(20);
  const RobustPredictor failed =
      make_robust_path_predictor(f.model->a(), f.model->mu_paths(), {});
  StreamingMcOptions opt;
  opt.mc.samples = 20;
  StreamingMcMetrics m;
  EXPECT_NO_THROW(m = evaluate_predictor_streaming(*f.model, failed, opt));
  EXPECT_EQ(m.status.health, StreamHealth::kUnusable);
  EXPECT_EQ(m.metrics.e1, 0.0);

  const SubsetSelector sel =

      make_subset_selector(f.model->a(), linalg::gram(f.model->a()));
  const RobustPredictor p = make_robust_path_predictor(
      f.model->a(), f.model->mu_paths(), sel.select(4));
  opt.mc.samples = 0;
  EXPECT_NO_THROW(m = evaluate_predictor_streaming(*f.model, p, opt));
  EXPECT_EQ(m.metrics.samples, 0u);
}

}  // namespace
}  // namespace repro::core
