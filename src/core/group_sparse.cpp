#include "core/group_sparse.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/gemm.h"
#include "util/telemetry.h"

namespace repro::core {
namespace {

// ADMM settings.  The penalty starts at 1: the prox threshold 1/rho is then
// comparable to the 0/1 entries of G, and residual balancing adapts it.
constexpr double kRho0 = 1.0;
constexpr double kAbsTol = 1e-7;
constexpr double kRelTol = 1e-4;
// A column is selected when its l-inf norm exceeds this fraction of the
// largest column norm of the solution.
constexpr double kColumnThresholdRel = 1e-2;
// Allowed relative constraint violation after the support refit before the
// support is grown.
constexpr double kRefitSlack = 0.02;

// Projects one row (already in the eigenbasis of Q) onto the ellipsoid
// {w : sum_k d_k w_k^2 <= t2}.  Newton on the secular equation
// phi(lambda) = sum_k d_k q_k^2 / (1 + lambda d_k)^2 - t2 with a bisection
// safeguard; phi is decreasing and convex for lambda >= 0.
void project_row_eigenbasis(std::span<double> q, std::span<const double> d,
                            double t2) {
  double phi0 = 0.0;
  for (std::size_t k = 0; k < q.size(); ++k) phi0 += d[k] * q[k] * q[k];
  if (phi0 <= t2) return;  // already inside

  double lambda = 0.0;
  double lo = 0.0;
  // Upper bracket: phi(lambda) <= dmax * |q|^2 / (1 + lambda dmin_pos)^2 ...
  // simpler: grow until phi < t2.
  double hi = 1.0;
  auto phi = [&](double lam) {
    double s = 0.0;
    for (std::size_t k = 0; k < q.size(); ++k) {
      const double den = 1.0 + lam * d[k];
      const double w = q[k] / den;
      s += d[k] * w * w;
    }
    return s;
  };
  while (phi(hi) > t2) {
    lo = hi;
    hi *= 4.0;
    if (hi > 1e18) break;  // numerically flat; accept hi
  }
  lambda = 0.5 * (lo + hi);
  for (int it = 0; it < 100; ++it) {
    double val = 0.0, deriv = 0.0;
    for (std::size_t k = 0; k < q.size(); ++k) {
      const double den = 1.0 + lambda * d[k];
      const double w = q[k] / den;
      const double dk_w2 = d[k] * w * w;
      val += dk_w2;
      deriv -= 2.0 * dk_w2 * d[k] / den;
    }
    if (val > t2) {
      lo = lambda;
    } else {
      hi = lambda;
    }
    const double err = val - t2;
    if (std::abs(err) <= 1e-12 * t2 + 1e-300) break;
    double next = lambda - err / deriv;
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);  // safeguard
    if (std::abs(next - lambda) <= 1e-15 * std::max(1.0, lambda)) {
      lambda = next;
      break;
    }
    lambda = next;
  }
  for (std::size_t k = 0; k < q.size(); ++k) q[k] /= (1.0 + lambda * d[k]);
}

}  // namespace

// The radius precondition is validated unconditionally below in every
// build; a contract would duplicate it.
// repro-lint: allow(contracts)
linalg::Vector project_l1_ball(linalg::Vector v, double radius) {
  if (radius < 0.0) throw std::invalid_argument("project_l1_ball: radius < 0");
  double l1 = 0.0;
  for (double x : v) l1 += std::abs(x);
  if (l1 <= radius) return v;
  if (radius == 0.0) {
    std::fill(v.begin(), v.end(), 0.0);
    return v;
  }
  // Find the soft threshold theta: sum_k max(|v_k| - theta, 0) = radius.
  linalg::Vector mag(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) mag[i] = std::abs(v[i]);
  std::sort(mag.begin(), mag.end(), std::greater<double>());
  double cum = 0.0;
  double theta = 0.0;
  for (std::size_t k = 0; k < mag.size(); ++k) {
    cum += mag[k];
    const double cand = (cum - radius) / static_cast<double>(k + 1);
    if (k + 1 == mag.size() || mag[k + 1] <= cand) {
      theta = cand;
      break;
    }
  }
  for (double& x : v) {
    const double m = std::abs(x) - theta;
    x = (m > 0.0) ? (x > 0.0 ? m : -m) : 0.0;
  }
  return v;
}

// Shape preconditions are validated unconditionally below in every build;
// a contract would duplicate them.
// repro-lint: allow(contracts)
SegmentQuadratic build_segment_quadratic(const linalg::Matrix& sigma,
                                         const linalg::Vector& mu_s,
                                         double kappa) {
  const std::size_t ns = sigma.rows();
  if (mu_s.size() != ns) {
    throw std::invalid_argument("build_segment_quadratic: shape mismatch");
  }
  const util::telemetry::Span span("core.hybrid.segment_quadratic");
  SegmentQuadratic out;
  out.q = linalg::gram(sigma);
  out.q *= kappa * kappa;
  for (std::size_t i = 0; i < ns; ++i) {
    for (std::size_t j = 0; j < ns; ++j) out.q(i, j) += mu_s[i] * mu_s[j];
  }
  linalg::EigenSymResult eig = linalg::eigen_sym(out.q);
  if (!eig.converged) {
    throw std::runtime_error(
        "build_segment_quadratic: eigendecomposition failed");
  }
  out.d = std::move(eig.values);
  for (double& x : out.d) x = std::max(x, 0.0);  // clamp tiny negative noise
  out.v = std::move(eig.vectors);
  return out;
}

// Shape and bound preconditions are validated unconditionally below in
// every build; a contract would duplicate them.
// repro-lint: allow(contracts)
GroupSparseResult select_segments(const linalg::Matrix& g_r1,
                                  const SegmentQuadratic& quad, double bound,
                                  int max_iterations) {
  const std::size_t r1 = g_r1.rows();
  const std::size_t ns = g_r1.cols();
  if (quad.q.rows() != ns) {
    throw std::invalid_argument("select_segments: shape mismatch");
  }
  if (bound <= 0.0) throw std::invalid_argument("select_segments: bound <= 0");

  const linalg::Matrix& q = quad.q;
  const linalg::Vector& d = quad.d;
  const linalg::Matrix& v_basis = quad.v;  // Q = V diag(d) V^T
  const double t2 = bound * bound;

  double rho = kRho0;

  // ADMM state.  Start at the feasible point B = Z = G (zero modeling error).
  linalg::Matrix b = g_r1;
  linalg::Matrix z = g_r1;
  linalg::Matrix u(r1, ns);

  GroupSparseResult out;
  const double sqrt_dim = std::sqrt(static_cast<double>(r1 * ns));
  util::telemetry::Span admm_span("core.hybrid.admm");
  for (int it = 0; it < max_iterations; ++it) {
    // ---- B-update: row-wise projection of (Z - U) onto the ellipsoid
    // centered at the corresponding row of G. ----
    linalg::Matrix p = g_r1;          // q_i = g_i - (z_i - u_i)
    p -= z;
    p += u;
    linalg::Matrix pt = linalg::multiply(p, v_basis);  // rows into eigenbasis
    for (std::size_t i = 0; i < r1; ++i) {
      project_row_eigenbasis(pt.row(i), d, t2);
    }
    const linalg::Matrix w = linalg::multiply_bt(pt, v_basis);  // back
    b = g_r1;
    b -= w;  // b_i = g_i - w_i

    // ---- Z-update: column-wise prox of (1/rho) * l-inf norm. ----
    const linalg::Matrix z_prev = z;
    linalg::Vector col(r1);
    for (std::size_t j = 0; j < ns; ++j) {
      for (std::size_t i = 0; i < r1; ++i) col[i] = b(i, j) + u(i, j);
      const linalg::Vector proj = project_l1_ball(col, 1.0 / rho);
      for (std::size_t i = 0; i < r1; ++i) z(i, j) = col[i] - proj[i];
    }

    // ---- Dual update and residuals. ----
    double r_norm2 = 0.0, s_norm2 = 0.0;
    for (std::size_t i = 0; i < r1; ++i) {
      for (std::size_t j = 0; j < ns; ++j) {
        const double pr = b(i, j) - z(i, j);
        u(i, j) += pr;
        r_norm2 += pr * pr;
        const double du = z(i, j) - z_prev(i, j);
        s_norm2 += du * du;
      }
    }
    const double r_norm = std::sqrt(r_norm2);
    const double s_norm = rho * std::sqrt(s_norm2);
    out.iterations = it + 1;
    const double eps_pri =
        sqrt_dim * kAbsTol +
        kRelTol * std::max(b.frobenius_norm(), z.frobenius_norm());
    const double eps_dual =
        sqrt_dim * kAbsTol + kRelTol * rho * u.frobenius_norm();
    if (r_norm <= eps_pri && s_norm <= eps_dual) {
      out.converged = true;
      break;
    }
    // Residual balancing.
    if (r_norm > 10.0 * s_norm) {
      rho *= 2.0;
      u *= 0.5;
    } else if (s_norm > 10.0 * r_norm) {
      rho *= 0.5;
      u *= 2.0;
    }
  }

  admm_span.stop();
  const util::telemetry::Span refit_span("core.hybrid.refit");

  // ---- Column support from Z (the sparse iterate). ----
  linalg::Vector col_inf(ns, 0.0);
  double max_inf = 0.0;
  for (std::size_t j = 0; j < ns; ++j) {
    for (std::size_t i = 0; i < r1; ++i) {
      col_inf[j] = std::max(col_inf[j], std::abs(z(i, j)));
    }
    max_inf = std::max(max_inf, col_inf[j]);
  }
  std::vector<char> in_support(ns, 0);
  for (std::size_t j = 0; j < ns; ++j) {
    if (col_inf[j] > kColumnThresholdRel * max_inf) in_support[j] = 1;
  }

  // ---- Constrained least-squares refit on the support, growing it while
  // any row violates its bound by more than kRefitSlack. ----
  // Constrained least-squares refit on a support, batched across all rows:
  //   c_N = g_N fixed,  c_S = -Q_SS^{-1} Q_SN g_N  (per row),
  //   wc^2 = c Q c^T = g_N Q_NN g_N^T - c_S . (Q_SN g_N)
  // (the cross terms collapse because Q_SS c_S = -Q_SN g_N).
  auto refit = [&](const std::vector<char>& support, linalg::Matrix& b_out,
                   linalg::Vector& wc_out) -> double {
    std::vector<int> s_idx, n_idx;
    for (std::size_t j = 0; j < ns; ++j) {
      (support[j] ? s_idx : n_idx).push_back(static_cast<int>(j));
    }
    const std::size_t nss = s_idx.size();
    b_out = linalg::Matrix(r1, ns);
    wc_out.assign(r1, 0.0);

    const linalg::Matrix g_n = g_r1.select_cols(n_idx);          // r1 x |N|
    const linalg::Matrix q_nn = q.select_rows(n_idx).select_cols(n_idx);
    // t_i = g_N Q_NN g_N^T per row, via one GEMM.
    const linalg::Matrix gq = linalg::multiply(g_n, q_nn);       // r1 x |N|
    linalg::Vector base(r1);
    for (std::size_t i = 0; i < r1; ++i) {
      base[i] = linalg::dot(gq.row(i), g_n.row(i));
    }

    double worst = 0.0;
    if (nss == 0) {
      for (std::size_t i = 0; i < r1; ++i) {
        wc_out[i] = std::sqrt(std::max(base[i], 0.0));
        worst = std::max(worst, wc_out[i]);
      }
      return worst;
    }

    linalg::Matrix q_ss = q.select_rows(s_idx).select_cols(s_idx);
    const linalg::Matrix q_sn = q.select_rows(s_idx).select_cols(n_idx);
    // RHS rows: r_i = Q_SN g_N (per row of g_n) -> batched as g_n * Q_SN^T.
    const linalg::Matrix rhs = linalg::multiply_bt(g_n, q_sn);   // r1 x |S|
    const linalg::RegularizedChol rc = linalg::chol_factor_regularized(q_ss);
    linalg::Vector r_row(nss);
    for (std::size_t i = 0; i < r1; ++i) {
      for (std::size_t a = 0; a < nss; ++a) r_row[a] = -rhs(i, a);
      const linalg::Vector c_s = linalg::chol_solve(rc.factors, r_row);
      // b_i = g_i - c_i on the support (zero elsewhere by construction).
      double cross = 0.0;
      for (std::size_t a = 0; a < nss; ++a) {
        const auto j = static_cast<std::size_t>(s_idx[a]);
        b_out(i, j) = g_r1(i, j) - c_s[a];
        cross += c_s[a] * rhs(i, a);
      }
      // c Q c^T = base + c_S . r  (cross <= 0: the support only helps).
      wc_out[i] = std::sqrt(std::max(base[i] + cross, 0.0));
      worst = std::max(worst, wc_out[i]);
    }
    return worst;
  };

  linalg::Vector wc;
  double worst = refit(in_support, out.b, wc);
  int grow_rounds = 0;
  std::size_t grow_step = std::max<std::size_t>(1, ns / 50);
  while (worst > bound * (1.0 + kRefitSlack) && grow_rounds < 16) {
    std::size_t selected = 0;
    for (char f : in_support) selected += (f != 0);
    if (selected + grow_step >= ns) {
      // Near-full support: take every segment (b = g is exactly feasible
      // with zero error), avoiding pathological refit churn at tight bounds.
      std::fill(in_support.begin(), in_support.end(), 1);
      worst = refit(in_support, out.b, wc);
      break;
    }
    // Grow the support with the unselected columns of largest |B| magnitude
    // from the (feasible) ADMM B iterate; the step doubles each round so
    // the total number of refits stays logarithmic.
    std::vector<std::pair<double, int>> candidates;
    for (std::size_t j = 0; j < ns; ++j) {
      if (in_support[j]) continue;
      double m = 0.0;
      for (std::size_t i = 0; i < r1; ++i) m = std::max(m, std::abs(b(i, j)));
      candidates.emplace_back(m, static_cast<int>(j));
    }
    if (candidates.empty()) break;
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b2) { return a.first > b2.first; });
    const std::size_t add = std::min(candidates.size(), grow_step);
    for (std::size_t k = 0; k < add; ++k) {
      in_support[static_cast<std::size_t>(candidates[k].second)] = 1;
    }
    grow_step *= 2;
    worst = refit(in_support, out.b, wc);
    ++grow_rounds;
  }
  out.row_wc = std::move(wc);
  for (std::size_t j = 0; j < ns; ++j) {
    if (in_support[j]) out.selected_segments.push_back(static_cast<int>(j));
  }
  return out;
}

}  // namespace repro::core
