#include "core/guardband.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "util/contracts.h"

namespace repro::core {

// The eps-vs-remaining size precondition is validated unconditionally just
// below in every build; a contract would duplicate it.
// repro-lint: allow(contracts)
GuardbandReport guardband_analysis(const variation::VariationModel& model,
                                   const LinearPredictor& predictor,
                                   const linalg::Vector& per_path_eps,
                                   double t_cons, double epsilon,
                                   const McOptions& options) {
  const std::size_t n_rem = predictor.remaining.size();
  if (per_path_eps.size() != n_rem) {
    throw std::invalid_argument("guardband_analysis: eps size mismatch");
  }
  GuardbandReport rep;
  rep.epsilon = epsilon;
  for (double e : per_path_eps) {
    rep.avg_guardband += e;
    rep.max_guardband = std::max(rep.max_guardband, e);
  }
  rep.observations = options.samples * n_rem;
  rep.mc.samples = options.samples;
  if (n_rem == 0) return rep;
  rep.avg_guardband /= static_cast<double>(n_rem);

  // Confusion counts ride on evaluate_predictor's own dies.  Integer sums
  // are exact, so the tally is independent of which thread scores a chunk.
  std::atomic<std::size_t> true_fails{0}, flagged{0}, missed{0},
      false_alarms{0};
  const auto tally = [&](const linalg::Matrix& pred,
                         const linalg::Matrix& truth) {
    std::size_t fails_c = 0, flagged_c = 0, missed_c = 0, alarms_c = 0;
    for (std::size_t i = 0; i < n_rem; ++i) {
      const double mu_i = predictor.mu_rem[i];
      const double guard = 1.0 - per_path_eps[i];
      for (std::size_t j = 0; j < pred.cols(); ++j) {
        const double t = mu_i + truth(i, j);
        const double p = mu_i + pred(i, j);
        const bool fails = t > t_cons;
        const bool flag = (guard > 0.0) ? (p / guard > t_cons) : true;
        fails_c += fails;
        flagged_c += flag;
        missed_c += fails && !flag;
        alarms_c += flag && !fails;
      }
    }
    true_fails += fails_c;
    flagged += flagged_c;
    missed += missed_c;
    false_alarms += alarms_c;
  };
  rep.mc = evaluate_predictor(model, predictor, options, tally);
  rep.true_fails = true_fails;
  rep.flagged = flagged;
  rep.missed = missed;
  rep.false_alarms = false_alarms;
  return rep;
}

AdaptiveGuardband adaptive_guardband(std::span<const double> base_sigma_ps,
                                     std::span<const double> shift_var_ps2,
                                     std::span<const double> mu_rem_ps,
                                     double kappa) {
  REPRO_CHECK_DIM(base_sigma_ps.size(), shift_var_ps2.size(),
                  "adaptive_guardband: base sigmas vs shift variances");
  REPRO_CHECK_DIM(base_sigma_ps.size(), mu_rem_ps.size(),
                  "adaptive_guardband: base sigmas vs nominal delays");
  AdaptiveGuardband g;
  const std::size_t n = base_sigma_ps.size();
  if (n == 0 || base_sigma_ps.size() != shift_var_ps2.size() ||
      base_sigma_ps.size() != mu_rem_ps.size()) {
    return g;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double base2 = base_sigma_ps[i] * base_sigma_ps[i];
    const double q = std::max(0.0, shift_var_ps2[i]);
    const double var = base2 + q;
    const double sigma = std::sqrt(var);
    // |mu| == 0 cannot happen for a real path delay; guard the division so a
    // degenerate synthetic input degrades to "no guard-band" per path
    // instead of an inf that poisons the mean.
    const double mu = std::abs(mu_rem_ps[i]);
    const double eps = (mu > 0.0) ? kappa * sigma / mu : 0.0;
    g.eps += eps;
    g.max_eps = std::max(g.max_eps, eps);
    g.mean_sigma_ps += sigma;
    g.shift_share += (var > 0.0) ? q / var : 0.0;
  }
  const auto dn = static_cast<double>(n);
  g.eps /= dn;
  g.mean_sigma_ps /= dn;
  g.shift_share /= dn;
  return g;
}

}  // namespace repro::core
