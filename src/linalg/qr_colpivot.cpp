#include "linalg/qr_colpivot.h"

#include <algorithm>
#include <limits>

#include "linalg/residual_basis.h"
#include "util/contracts.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace repro::linalg {

QrcpResult qr_colpivot(const Matrix& c, std::size_t max_steps) {
  REPRO_CHECK(!c.empty() || max_steps == 0,
              "qr_colpivot: empty input admits no pivot steps");
  const util::telemetry::Span span("linalg.qr_colpivot");
  util::telemetry::count("linalg.qr_colpivot.calls");
  // n candidates (rows of c) of length m: the factored matrix is A = c^T.
  const std::size_t n = c.rows(), m = c.cols();
  const std::size_t full = std::min(m, n);
  const std::size_t steps =
      (max_steps == 0) ? full : std::min(full, max_steps);

  QrcpResult out;
  out.dim = std::max(m, n);
  out.perm.reserve(n);
  out.rdiag_abs.reserve(steps);
  ResidualBasis basis(m, steps);
  std::vector<double> d(n);
  std::vector<char> picked(n, 0);

  // Applies f to every unpicked candidate.  Each candidate's update is
  // serial and touches only its own d_j, so the split over the pool does
  // not change a bit; below the work floor the fork/join costs more than it
  // saves.
  const std::size_t nt = util::thread_count();
  const bool parallel = nt > 1 && n * m >= 65'536;
  const auto for_unpicked = [&](const auto& f) {
    const auto body = [&](std::size_t jb, std::size_t je) {
      for (std::size_t j = jb; j < je; ++j) {
        if (!picked[j]) f(j, c.row(j).data());
      }
    };
    if (parallel) {
      util::parallel_for(0, n, std::max<std::size_t>(64, n / (4 * nt)), body);
    } else {
      body(0, n);
    }
  };

  for_unpicked([&](std::size_t j, const double* x) { d[j] = basis.norm_sq(x); });
  for (std::size_t k = 0; k < steps; ++k) {
    std::size_t piv = n;
    for (std::size_t j = 0; j < n; ++j) {
      if (!picked[j] && (piv == n || d[j] > d[piv])) piv = j;
    }
    picked[piv] = 1;
    out.perm.push_back(static_cast<int>(piv));
    const std::size_t q = basis.size();
    out.rdiag_abs.push_back(basis.add(c.row(piv)));
    if (basis.size() > q && k + 1 < steps) {
      for_unpicked([&](std::size_t j, const double* x) {
        basis.fold(q, q + 1, x, d[j]);
      });
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (!picked[j]) out.perm.push_back(static_cast<int>(j));
  }
  return out;
}

std::size_t qrcp_rank(const QrcpResult& f, double abs_tol) {
  if (f.rdiag_abs.empty()) return 0;
  double tol = abs_tol;
  if (tol < 0.0) {
    tol = static_cast<double>(f.dim) * std::numeric_limits<double>::epsilon() *
          f.rdiag_abs.front();
  }
  std::size_t r = 0;
  for (double d : f.rdiag_abs) {
    if (d > tol) ++r;
    else break;  // rdiag is (approximately) non-increasing under pivoting
  }
  return r;
}

}  // namespace repro::linalg
