#include "linalg/eigen_sym.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/contracts.h"
#include "util/telemetry.h"

namespace repro::linalg {
namespace {

// Householder reduction of a real symmetric matrix to tridiagonal form.
// On exit `a` holds the accumulated orthogonal transform, d the diagonal,
// e the subdiagonal (e[0] = 0).
void tred2(Matrix& a, Vector& d, Vector& e) {
  const int n = static_cast<int>(a.rows());
  d.assign(n, 0.0);
  e.assign(n, 0.0);
  for (int i = n - 1; i > 0; --i) {
    const int l = i - 1;
    double h = 0.0, scale = 0.0;
    if (l > 0) {
      for (int k = 0; k < i; ++k) scale += std::abs(a(i, k));
      if (scale == 0.0) {
        e[i] = a(i, l);
      } else {
        for (int k = 0; k < i; ++k) {
          a(i, k) /= scale;
          h += a(i, k) * a(i, k);
        }
        double f = a(i, l);
        double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        a(i, l) = f - g;
        f = 0.0;
        for (int j = 0; j < i; ++j) {
          a(j, i) = a(i, j) / h;
          g = 0.0;
          for (int k = 0; k < j + 1; ++k) g += a(j, k) * a(i, k);
          for (int k = j + 1; k < i; ++k) g += a(k, j) * a(i, k);
          e[j] = g / h;
          f += e[j] * a(i, j);
        }
        const double hh = f / (h + h);
        for (int j = 0; j < i; ++j) {
          f = a(i, j);
          e[j] = g = e[j] - hh * f;
          for (int k = 0; k < j + 1; ++k) {
            a(j, k) -= f * e[k] + g * a(i, k);
          }
        }
      }
    } else {
      e[i] = a(i, l);
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    if (d[i] != 0.0) {
      for (std::size_t j = 0; j < i; ++j) {
        double g = 0.0;
        for (std::size_t k = 0; k < i; ++k) g += a(i, k) * a(k, j);
        for (std::size_t k = 0; k < i; ++k) a(k, j) -= g * a(k, i);
      }
    }
    d[i] = a(i, i);
    a(i, i) = 1.0;
    for (std::size_t j = 0; j < i; ++j) a(j, i) = a(i, j) = 0.0;
  }
}

// Implicit-shift QL iteration on the tridiagonal (d, e); accumulates the
// rotations into `z`, which holds the transform transposed: row k is
// eigenvector k.  Each Givens rotation then combines two contiguous rows,
// with the same per-element arithmetic as on the columns of the transform.
bool tql2(Matrix& z, Vector& d, Vector& e) {
  const int n = static_cast<int>(d.size());
  for (int i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  for (int l = 0; l < n; ++l) {
    int iter = 0;
    int m = 0;
    do {
      for (m = l; m < n - 1; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= std::numeric_limits<double>::epsilon() * dd) {
          break;
        }
      }
      if (m != l) {
        if (iter++ == 50) return false;
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + (g >= 0.0 ? std::abs(r) : -std::abs(r)));
        double s = 1.0, c = 1.0, p = 0.0;
        int i = m - 1;
        for (; i >= l; --i) {
          double f = s * e[i];
          const double b = c * e[i];
          r = std::hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          double* zi = z.row(static_cast<std::size_t>(i)).data();
          double* zi1 = z.row(static_cast<std::size_t>(i) + 1).data();
          for (int k = 0; k < n; ++k) {
            f = zi1[k];
            zi1[k] = s * zi[k] + c * f;
            zi[k] = c * zi[k] - s * f;
          }
        }
        if (r == 0.0 && i >= l) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  return true;
}

}  // namespace

EigenSymResult eigen_sym(Matrix s) {
  REPRO_CHECK_DIM(s.rows(), s.cols(), "eigen_sym: square input");
  if (s.rows() != s.cols()) throw std::invalid_argument("eigen_sym: not square");
  const util::telemetry::Span span("linalg.eigen_sym");
  EigenSymResult out;
  if (s.rows() == 0) return out;
  Vector e;
  tred2(s, out.values, e);
  Matrix z = s.transposed();
  out.converged = tql2(z, out.values, e);

  // Sort ascending with matching eigenvector rows (insertion sort; QL
  // output is nearly sorted already).
  const std::size_t n = out.values.size();
  for (std::size_t i = 1; i < n; ++i) {
    const double val = out.values[i];
    std::size_t j = i;
    while (j > 0 && out.values[j - 1] > val) {
      out.values[j] = out.values[j - 1];
      z.swap_rows(j, j - 1);
      --j;
    }
    out.values[j] = val;
  }
  out.vectors = z.transposed();
  return out;
}

}  // namespace repro::linalg
