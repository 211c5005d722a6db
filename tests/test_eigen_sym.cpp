#include "linalg/eigen_sym.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "linalg/gemm.h"
#include "util/rng.h"

namespace repro::linalg {
namespace {

Matrix random_symmetric(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      m(i, j) = m(j, i) = rng.normal();
    }
  }
  return m;
}

TEST(EigenSym, DiagonalMatrix) {
  const EigenSymResult r = eigen_sym(Matrix::diagonal(Vector{3.0, -1.0, 2.0}));
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.values[0], -1.0, 1e-12);
  EXPECT_NEAR(r.values[1], 2.0, 1e-12);
  EXPECT_NEAR(r.values[2], 3.0, 1e-12);
}

TEST(EigenSym, Known2x2) {
  Matrix m{{2.0, 1.0}, {1.0, 2.0}};
  const EigenSymResult r = eigen_sym(m);
  EXPECT_NEAR(r.values[0], 1.0, 1e-12);
  EXPECT_NEAR(r.values[1], 3.0, 1e-12);
}

TEST(EigenSym, ValuesAscending) {
  const EigenSymResult r = eigen_sym(random_symmetric(20, 1));
  for (std::size_t i = 1; i < r.values.size(); ++i) {
    EXPECT_LE(r.values[i - 1], r.values[i]);
  }
}

TEST(EigenSym, Reconstruction) {
  const Matrix s = random_symmetric(15, 2);
  const EigenSymResult r = eigen_sym(s);
  ASSERT_TRUE(r.converged);
  // S = V D V^T
  Matrix vd = r.vectors;
  for (std::size_t j = 0; j < r.values.size(); ++j) {
    for (std::size_t i = 0; i < vd.rows(); ++i) vd(i, j) *= r.values[j];
  }
  EXPECT_LT(max_abs_diff(multiply_bt(vd, r.vectors), s), 1e-10);
}

TEST(EigenSym, VectorsOrthonormal) {
  const EigenSymResult r = eigen_sym(random_symmetric(12, 3));
  const Matrix vtv = multiply_at(r.vectors, r.vectors);
  EXPECT_LT(max_abs_diff(vtv, Matrix::identity(12)), 1e-11);
}

TEST(EigenSym, EigenEquationHolds) {
  const Matrix s = random_symmetric(9, 4);
  const EigenSymResult r = eigen_sym(s);
  for (std::size_t j = 0; j < 9; ++j) {
    const Vector v = r.vectors.column(j);
    const Vector sv = matvec(s, v);
    for (std::size_t i = 0; i < 9; ++i) {
      EXPECT_NEAR(sv[i], r.values[j] * v[i], 1e-9);
    }
  }
}

TEST(EigenSym, TraceMatchesEigenSum) {
  const Matrix s = random_symmetric(25, 5);
  const EigenSymResult r = eigen_sym(s);
  double trace = 0.0, sum = 0.0;
  for (std::size_t i = 0; i < 25; ++i) trace += s(i, i);
  for (double v : r.values) sum += v;
  EXPECT_NEAR(trace, sum, 1e-9);
}

TEST(EigenSym, PsdGramHasNonNegativeValues) {
  const Matrix b = random_symmetric(10, 6);
  const EigenSymResult r = eigen_sym(gram(b));
  for (double v : r.values) EXPECT_GT(v, -1e-9);
}

TEST(EigenSym, NotSquareThrows) {
  EXPECT_THROW((void)eigen_sym(Matrix(2, 3)), std::invalid_argument);
}

TEST(EigenSym, RepeatedEigenvalues) {
  // Identity has a 3-fold repeated eigenvalue; vectors must still be
  // orthonormal and the reconstruction exact.
  const EigenSymResult r = eigen_sym(Matrix::identity(3));
  for (double v : r.values) EXPECT_NEAR(v, 1.0, 1e-13);
  EXPECT_LT(max_abs_diff(multiply_at(r.vectors, r.vectors),
                         Matrix::identity(3)),
            1e-12);
}

// eigen_sym as first written: tred2, then tql2 rotating the columns of the
// transform, then an insertion sort on columns.  The row-rotation sweep must
// reproduce it bit for bit.
void reference_tred2(Matrix& a, Vector& d, Vector& e) {
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

bool reference_tql2(Matrix& a, Vector& d, Vector& e) {
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
          for (int k = 0; k < n; ++k) {
            f = a(k, i + 1);
            a(k, i + 1) = s * a(k, i) + c * f;
            a(k, i) = c * a(k, i) - s * f;
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

EigenSymResult reference_eigen_sym(Matrix s) {
  EigenSymResult out;
  Vector e;
  reference_tred2(s, out.values, e);
  out.converged = reference_tql2(s, out.values, e);
  out.vectors = std::move(s);
  const std::size_t n = out.values.size();
  for (std::size_t i = 1; i < n; ++i) {
    const double val = out.values[i];
    const Vector col = out.vectors.column(i);
    std::size_t j = i;
    while (j > 0 && out.values[j - 1] > val) {
      out.values[j] = out.values[j - 1];
      out.vectors.set_column(j, out.vectors.column(j - 1));
      --j;
    }
    out.values[j] = val;
    out.vectors.set_column(j, col);
  }
  return out;
}

bool same_bits(const Matrix& x, const Matrix& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    if (std::memcmp(x.row(i).data(), y.row(i).data(),
                    x.cols() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(EigenSym, MatchesColumnRotationReferenceBits) {
  std::vector<std::pair<std::string, Matrix>> cases;
  for (std::size_t n : {1u, 2u, 17u, 300u}) {
    cases.emplace_back("random order " + std::to_string(n),
                       random_symmetric(n, 40 + n));
  }
  // I + B B^T with B 30 x 3: eigenvalue 1 repeated 27 times.
  util::Rng rng(41);
  Matrix b(30, 3);
  for (std::size_t i = 0; i < b.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) b(i, j) = rng.normal();
  }
  Matrix repeated = gram(b);
  for (std::size_t i = 0; i < repeated.rows(); ++i) repeated(i, i) += 1.0;
  cases.emplace_back("repeated eigenvalues", std::move(repeated));
  // Rank-25 PSD Gram of order 40.
  Matrix tall(40, 25);
  for (std::size_t i = 0; i < tall.rows(); ++i) {
    for (std::size_t j = 0; j < tall.cols(); ++j) tall(i, j) = rng.normal();
  }
  cases.emplace_back("PSD Gram", gram(tall));

  for (const auto& [name, s] : cases) {
    const EigenSymResult want = reference_eigen_sym(s);
    const EigenSymResult got = eigen_sym(s);
    EXPECT_EQ(got.converged, want.converged) << name;
    ASSERT_EQ(got.values.size(), want.values.size()) << name;
    EXPECT_EQ(std::memcmp(got.values.data(), want.values.data(),
                          got.values.size() * sizeof(double)),
              0)
        << name << ": values";
    EXPECT_TRUE(same_bits(got.vectors, want.vectors)) << name << ": vectors";
  }
}

}  // namespace
}  // namespace repro::linalg
