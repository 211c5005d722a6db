#include "core/predictor.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "linalg/gemm.h"
#include "linalg/solve.h"
#include "util/contracts.h"
#include "util/stats.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace repro::core {
namespace {

// Huber tuning constant, in units of the residual scale (1.345 = 95%
// Gaussian efficiency).
constexpr double kHuberDelta = 1.345;
constexpr int kIrlsIterations = 12;
constexpr double kIrlsTol = 1e-8;  // max weight change declaring convergence
// Standardized-residual threshold beyond which a measurement is screened
// out as an outlier after IRLS converges.
constexpr double kOutlierZscore = 4.0;

// `id` as an index into n rows; throws std::out_of_range outside [0, n).
std::size_t row_index(int id, std::size_t n) {
  if (id < 0 || static_cast<std::size_t>(id) >= n) {
    throw std::out_of_range("row index " + std::to_string(id) +
                            " outside [0, " + std::to_string(n) + ")");
  }
  return static_cast<std::size_t>(id);
}

// Path indices in [0, n) outside `measured`, ascending.
std::vector<int> complement(std::size_t n, const std::vector<int>& measured) {
  std::vector<char> in(n, 0);
  for (int i : measured) in[row_index(i, n)] = 1;
  std::vector<int> out;
  for (std::size_t i = 0; i < n; ++i) {
    if (!in[i]) out.push_back(static_cast<int>(i));
  }
  return out;
}

// What the Theorem-2 build forms on the way to coef; the robust builder keeps
// all three.
struct Theorem2Blocks {
  linalg::Matrix m_y;    // measured rows M_y (n_meas x m)
  linalg::Matrix gram;   // M_y M_y^T
  linalg::Matrix cross;  // M_y A_rem^T (n_meas x n_rem)
};

// The Theorem-2 build every predictor goes through.  The caller sets p's
// measured_paths, measured_segments and remaining; this gathers their means
// and rows (paths from `a`, segments from `sigma`), forms gram(M_y) and the
// cross block, and solves gram * coef^T = cross against `factor(gram)`, a
// Cholesky factor carrying the caller's regularization policy.  The per-path
// error sigmas are the row norms of Omega = coef * M_y - A_rem, which lives
// only inside this call.  Returns nothing, with coef left empty, when the
// factor is not ok.
template <class Factor>
std::optional<Theorem2Blocks> build(
    LinearPredictor& p, Factor&& factor, const linalg::Matrix& a,
    const linalg::Vector& mu_paths, const linalg::Matrix* sigma = nullptr,
    const linalg::Vector* mu_segments = nullptr) {
  const std::size_t n_meas =
      p.measured_paths.size() + p.measured_segments.size();
  const std::size_t n_paths = std::min(a.rows(), mu_paths.size());
  Theorem2Blocks t;
  t.m_y = linalg::Matrix(n_meas, a.cols());
  p.mu_meas.resize(n_meas);
  std::size_t row = 0;
  for (int id : p.measured_paths) {
    const std::size_t i = row_index(id, n_paths);
    t.m_y.set_row(row, a.row(i));
    p.mu_meas[row++] = mu_paths[i];
  }
  for (int id : p.measured_segments) {
    const std::size_t s =
        row_index(id, std::min(sigma->rows(), mu_segments->size()));
    t.m_y.set_row(row, sigma->row(s));
    p.mu_meas[row++] = (*mu_segments)[s];
  }
  p.mu_rem.resize(p.remaining.size());
  for (std::size_t k = 0; k < p.remaining.size(); ++k) {
    p.mu_rem[k] = mu_paths[row_index(p.remaining[k], n_paths)];
  }

  t.gram = linalg::gram(t.m_y);
  t.cross = linalg::multiply_bt(a.select_rows(p.remaining), t.m_y).transposed();
  const linalg::CholFactors f = factor(t.gram);
  if (!f.ok) return std::nullopt;
  p.coef = linalg::chol_solve(f, t.cross).transposed();
  // Omega row by row: subtracting a_i in place is the elementwise
  // Matrix -= A_rem, without a second n_rem x m block.
  linalg::Matrix omega = linalg::multiply(p.coef, t.m_y);
  p.sigma.resize(omega.rows());
  for (std::size_t i = 0; i < omega.rows(); ++i) {
    const auto row = omega.row(i);
    const auto a_i = a.row(static_cast<std::size_t>(p.remaining[i]));
    for (std::size_t j = 0; j < row.size(); ++j) row[j] -= a_i[j];
    p.sigma[i] = linalg::norm2(row);
  }
  return t;
}

// The clean builders' policy: the smallest jitter that lets S factor, which
// matches the paper's ( )^+ when measurements are redundant.  Throws when no
// jitter up to max_abs(S) helps.
linalg::CholFactors factor_regularized(const linalg::Matrix& s) {
  return linalg::chol_factor_regularized(s).factors;
}

}  // namespace

linalg::Vector LinearPredictor::predict(
    std::span<const double> measured) const {
  if (measured.size() != mu_meas.size()) {
    throw std::invalid_argument(
        "LinearPredictor::predict: got " + std::to_string(measured.size()) +
        " measurements, predictor expects " + std::to_string(mu_meas.size()));
  }
  linalg::Vector centered(measured.begin(), measured.end());
  for (std::size_t i = 0; i < centered.size(); ++i) centered[i] -= mu_meas[i];
  linalg::Vector out = linalg::matvec(coef, centered);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] += mu_rem[i];
  return out;
}

linalg::Matrix predict_panel(const LinearPredictor& p,
                             const linalg::Matrix& measured) {
  REPRO_CHECK_DIM(measured.cols(), p.mu_meas.size(),
                  "predict_panel: measurement slots per die");
  if (measured.cols() != p.mu_meas.size()) {
    throw std::invalid_argument(
        "predict_panel: got " + std::to_string(measured.cols()) +
        " measurement columns, predictor expects " +
        std::to_string(p.mu_meas.size()));
  }
  const std::size_t dies = measured.rows();
  const std::size_t n_rem = p.mu_rem.size();
  linalg::Matrix centered = measured;
  for (std::size_t d = 0; d < dies; ++d) {
    const auto row = centered.row(d);
    for (std::size_t k = 0; k < row.size(); ++k) row[k] -= p.mu_meas[k];
  }
  util::telemetry::count("core.predict.panels");
  util::telemetry::count("core.predict.panel_dies", dies);
  linalg::Matrix out(dies, n_rem);
  // Output element (d, i) is dot(coef.row(i), centered.row(d)) + mu_rem[i] —
  // exactly the arithmetic of predict()'s matvec element, so every die's row
  // matches the serial result bitwise.  The loop nest keeps one coef row hot
  // across the whole batch (coef streams once per panel, not once per die),
  // and the parallel split over output columns never reorders an element's
  // operands, so the panel is also thread-count invariant.
  util::parallel_for(0, n_rem, 64, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      const auto crow = p.coef.row(i);
      for (std::size_t d = 0; d < dies; ++d) {
        out(d, i) = linalg::dot(crow, centered.row(d)) + p.mu_rem[i];
      }
    }
  });
  return out;
}

LinearPredictor make_path_predictor(const linalg::Matrix& a,
                                    const linalg::Vector& mu,
                                    const std::vector<int>& rep) {
  REPRO_CHECK_DIM(mu.size(), a.rows(), "make_path_predictor: mu vs paths");
  REPRO_CHECK(rep.size() <= a.rows(),
              "make_path_predictor: more representatives than paths");
  if (mu.size() != a.rows()) {
    throw std::invalid_argument("make_path_predictor: mu size");
  }
  LinearPredictor p;
  p.measured_paths = rep;
  p.remaining = complement(a.rows(), rep);
  build(p, factor_regularized, a, mu);
  return p;
}

LinearPredictor make_joint_predictor(const linalg::Matrix& a,
                                     const linalg::Vector& mu_paths,
                                     const linalg::Matrix& sigma,
                                     const linalg::Vector& mu_segments,
                                     const std::vector<int>& rep_paths,
                                     const std::vector<int>& rep_segments,
                                     const std::vector<int>& remaining) {
  // The A-vs-Sigma parameter count is validated unconditionally below; the
  // contract states only what is not:
  REPRO_CHECK_DIM(mu_paths.size(), a.rows(),
                  "make_joint_predictor: path means vs path count");
  if (a.cols() != sigma.cols()) {
    throw std::invalid_argument("make_joint_predictor: parameter mismatch");
  }
  LinearPredictor p;
  p.measured_paths = rep_paths;
  p.measured_segments = rep_segments;
  p.remaining = remaining;
  build(p, factor_regularized, a, mu_paths, &sigma, &mu_segments);
  return p;
}

// ---------------------------------------------------------------------------
// Noisy-silicon robustness layer.
// ---------------------------------------------------------------------------

const char* to_string(PredictorHealth h) {
  switch (h) {
    case PredictorHealth::kOk: return "ok";
    case PredictorHealth::kDegraded: return "degraded";
    case PredictorHealth::kFailed: return "failed";
  }
  return "?";
}

linalg::Vector RobustPredictor::error_sigmas() const {
  linalg::Vector s = base.error_sigmas();
  const double noise2 =
      options.measurement_sigma_ps * options.measurement_sigma_ps;
  if (noise2 > 0.0) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      const double cn = linalg::norm2(base.coef.row(i));
      s[i] = std::sqrt(s[i] * s[i] + noise2 * cn * cn);
    }
  }
  return s;
}

RobustPrediction RobustPredictor::predict(std::span<const double> measured,
                                          std::span<const char> valid) const {
  RobustPrediction out;
  out.values = base.mu_rem;  // nominal fallback, overwritten on success
  const std::size_t n_meas = base.mu_meas.size();
  if (!status.usable() || measured.size() != n_meas ||
      (!valid.empty() && valid.size() != n_meas)) {
    return out;
  }

  // Usable measurement slots: flagged valid and finite.
  std::vector<int> slots;
  for (std::size_t i = 0; i < n_meas; ++i) {
    if ((valid.empty() || valid[i]) && std::isfinite(measured[i])) {
      slots.push_back(static_cast<int>(i));
    } else {
      out.missing.push_back(static_cast<int>(i));
    }
  }
  if (slots.empty()) return out;  // nothing measurable on this die

  const double lam0 =
      options.measurement_sigma_ps * options.measurement_sigma_ps;
  auto solve_slots = [&](const std::vector<int>& use,
                         const linalg::Vector& weights,
                         linalg::Vector& z) -> bool {
    linalg::Matrix s = gram_meas.select_rows(use).select_cols(use);
    linalg::Vector r0(use.size());
    for (std::size_t i = 0; i < use.size(); ++i) {
      const auto slot = static_cast<std::size_t>(use[i]);
      r0[i] = measured[slot] - base.mu_meas[slot];
      if (lam0 > 0.0) s(i, i) += lam0 / weights[i];
    }
    linalg::SpdSolveInfo info;
    z = linalg::spd_solve_robust(s, r0, &info, kRobustMaxCondition);
    return info.ok;
  };

  // Huber IRLS over the dual variable z of the MAP estimate
  //   x = A_v^T (A_v A_v^T + lam0 W^{-1})^{-1} (y - mu);
  // residuals come from the k x k system (r = r0 - S0 z), so each iteration
  // costs O(k^3) with k = #valid slots.  With lam0 == 0 the system
  // interpolates exactly and the loop converges immediately (classic
  // Theorem-2 behaviour).
  linalg::Vector w(slots.size(), 1.0);
  linalg::Vector z;
  const linalg::Matrix s0 =
      gram_meas.select_rows(slots).select_cols(slots);
  linalg::Vector r0(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const auto slot = static_cast<std::size_t>(slots[i]);
    r0[i] = measured[slot] - base.mu_meas[slot];
  }
  double scale = options.measurement_sigma_ps;
  for (int iter = 0; iter < kIrlsIterations; ++iter) {
    ++out.irls_iterations;
    if (!solve_slots(slots, w, z)) return out;  // pathological input
    if (lam0 <= 0.0) break;
    // Residuals and a robust scale estimate (MAD, floored at the sensor
    // noise so a lucky die cannot declare everything an outlier).
    const linalg::Vector sz = linalg::matvec(s0, z);
    std::vector<double> abs_resid(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      abs_resid[i] = std::abs(r0[i] - sz[i]);
    }
    scale = std::max(options.measurement_sigma_ps,
                     1.4826 * util::median(abs_resid));
    double max_dw = 0.0;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const double ar = abs_resid[i];
      const double wi =
          (ar <= kHuberDelta * scale || ar == 0.0)
              ? 1.0
              : kHuberDelta * scale / ar;
      max_dw = std::max(max_dw, std::abs(wi - w[i]));
      w[i] = wi;
    }
    if (max_dw < kIrlsTol) break;
  }
  out.residual_scale = scale;

  // Residual-based outlier screening: slots whose standardized residual
  // exceeds the z-score threshold are removed outright and the final solve
  // is redone on the survivors.
  std::vector<int> kept = slots;
  if (lam0 > 0.0 && scale > 0.0 && slots.size() >= 4) {
    const linalg::Vector sz = linalg::matvec(s0, z);
    std::vector<int> survivors;
    linalg::Vector w_kept;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (std::abs(r0[i] - sz[i]) > kOutlierZscore * scale) {
        out.screened.push_back(slots[i]);
      } else {
        survivors.push_back(slots[i]);
        w_kept.push_back(w[i]);
      }
    }
    if (!out.screened.empty() && !survivors.empty()) {
      kept = std::move(survivors);
      if (!solve_slots(kept, w_kept, z)) return out;
    } else if (survivors.empty()) {
      return out;  // every measurement looked insane: nominal fallback
    }
  }

  // d_rem = mu_rem + A_rem A_v^T z, taken through the cached measured-space
  // image: row kept_j of cross is A_rem a_{kept_j}, so the parameter
  // estimate x = A_v^T z is never formed.
  const std::size_t n_rem = base.mu_rem.size();
  out.values.assign(n_rem, 0.0);
  for (std::size_t j = 0; j < kept.size(); ++j) {
    linalg::axpy(z[j], cross.row(static_cast<std::size_t>(kept[j])),
                 out.values);
  }
  for (std::size_t i = 0; i < n_rem; ++i) out.values[i] += base.mu_rem[i];
  out.dual = std::move(z);
  out.health = (out.screened.empty() && out.missing.empty())
                   ? PredictorHealth::kOk
                   : PredictorHealth::kDegraded;
  return out;
}

// Deliberately contract-free: the robust entry point converts every
// precondition violation into PredictorStatus (graceful degradation under
// fault injection); an aborting contract here would defeat its purpose.
// repro-lint: allow(contracts)
RobustPredictor make_robust_path_predictor(const linalg::Matrix& a,
                                           const linalg::Vector& mu,
                                           const std::vector<int>& rep,
                                           const std::vector<int>& dead,
                                           const RobustOptions& options) {
  RobustPredictor rp;
  rp.options = options;
  auto fail = [&](std::string msg) {
    rp.status.health = PredictorHealth::kFailed;
    rp.status.message = std::move(msg);
    return rp;
  };
  if (a.empty()) {
    return fail(a.rows() == 0 ? "no target paths (A has zero rows)"
                              : "no variation parameters (A has zero columns)");
  }
  if (mu.size() != a.rows()) {
    return fail("mu size " + std::to_string(mu.size()) +
                " != path count " + std::to_string(a.rows()));
  }
  const auto n = static_cast<int>(a.rows());
  std::vector<char> is_dead(a.rows(), 0);
  for (int d : dead) {
    if (d < 0 || d >= n) return fail("dead path index out of range");
    is_dead[static_cast<std::size_t>(d)] = 1;
  }
  std::vector<char> in_meas(a.rows(), 0);
  std::vector<char> seen(a.rows(), 0);
  std::vector<int> live;
  for (int r : rep) {
    if (r < 0 || r >= n) return fail("representative index out of range");
    if (seen[static_cast<std::size_t>(r)]) continue;  // duplicate
    seen[static_cast<std::size_t>(r)] = 1;
    if (is_dead[static_cast<std::size_t>(r)]) {
      rp.status.dropped_paths.push_back(r);
      continue;
    }
    in_meas[static_cast<std::size_t>(r)] = 1;
    live.push_back(r);
  }
  // One backup per distinct dead representative, never more: rep may list
  // an index twice, so rep.size() overcounts the slots to refill.
  for (int b : options.backup_order) {
    if (rp.status.promoted_paths.size() >= rp.status.dropped_paths.size()) {
      break;
    }
    if (b < 0 || b >= n) continue;
    if (in_meas[static_cast<std::size_t>(b)] ||
        is_dead[static_cast<std::size_t>(b)]) {
      continue;
    }
    in_meas[static_cast<std::size_t>(b)] = 1;
    live.push_back(b);
    rp.status.promoted_paths.push_back(b);
  }
  if (live.empty()) {
    return fail(rep.empty() ? "no representative paths given"
                            : "all representative paths are dead");
  }

  LinearPredictor& p = rp.base;
  p.measured_paths = live;
  p.remaining = complement(a.rows(), live);
  // Reported condition-gated ridge instead of the throwing jitter policy.
  linalg::SpdSolveInfo info;
  std::optional<Theorem2Blocks> t = build(
      p,
      [&](const linalg::Matrix& s) {
        linalg::SpdFactor sf =
            linalg::spd_factor_robust(s, kRobustMaxCondition);
        info = sf.info;
        return std::move(sf.factors);
      },
      a, mu);
  rp.status.gram_condition = info.condition;
  rp.status.ridge = info.ridge;
  if (!t) {
    return fail("measured Gram system unsolvable (non-finite sensitivities?)");
  }
  rp.a_meas = std::move(t->m_y);
  rp.gram_meas = std::move(t->gram);
  rp.cross = std::move(t->cross);
  rp.rem_norm2.resize(p.remaining.size());
  for (std::size_t k = 0; k < p.remaining.size(); ++k) {
    const auto row = a.row(static_cast<std::size_t>(p.remaining[k]));
    rp.rem_norm2[k] = linalg::dot(row, row);
  }

  // Status roll-up: ridge fallback or dead-path drop => degraded.
  const bool degraded = info.regularized || !rp.status.dropped_paths.empty();
  rp.status.health =
      degraded ? PredictorHealth::kDegraded : PredictorHealth::kOk;
  if (info.regularized) {
    rp.status.message =
        "gram condition " + std::to_string(info.condition) +
        " above threshold; ridge " + std::to_string(info.ridge) + " applied";
  } else if (!rp.status.dropped_paths.empty()) {
    rp.status.message =
        std::to_string(rp.status.dropped_paths.size()) +
        " dead representative path(s) dropped, " +
        std::to_string(rp.status.promoted_paths.size()) + " backup(s) promoted";
  }

  // Mean inflation of the analytic error sigmas by the noise prior.
  if (options.measurement_sigma_ps > 0.0 && !p.remaining.empty()) {
    const linalg::Vector clean = p.error_sigmas();
    const linalg::Vector noisy = rp.error_sigmas();
    double sc = 0.0, sn = 0.0;
    for (std::size_t i = 0; i < clean.size(); ++i) {
      sc += clean[i];
      sn += noisy[i];
    }
    rp.status.sigma_inflation = (sc > 0.0) ? sn / sc : 1.0;
  }
  return rp;
}

}  // namespace repro::core
