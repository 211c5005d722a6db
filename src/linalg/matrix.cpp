#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/contracts.h"

namespace repro::linalg {

double dot(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(std::span<const double> a) {
  // Two-pass scaled norm to avoid overflow for extreme sensitivities.
  double maxv = 0.0;
  for (double x : a) maxv = std::max(maxv, std::abs(x));
  if (maxv == 0.0) return 0.0;
  double s = 0.0;
  for (double x : a) {
    const double t = x / maxv;
    s += t * t;
  }
  return maxv * std::sqrt(s);
}

double norm1(std::span<const double> a) {
  double s = 0.0;
  for (double x : a) s += std::abs(x);
  return s;
}

double norm_inf(std::span<const double> a) {
  double s = 0.0;
  for (double x : a) s = std::max(s, std::abs(x));
  return s;
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  if (x.size() != y.size()) throw std::invalid_argument("axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scale(std::span<double> x, double alpha) {
  for (double& v : x) v *= alpha;
}

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("Matrix init: ragged rows");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diagonal(std::span<const double> d) {
  Matrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  // Simple blocked transpose for cache friendliness.
  constexpr std::size_t kBlock = 32;
  for (std::size_t ib = 0; ib < rows_; ib += kBlock) {
    for (std::size_t jb = 0; jb < cols_; jb += kBlock) {
      const std::size_t imax = std::min(ib + kBlock, rows_);
      const std::size_t jmax = std::min(jb + kBlock, cols_);
      for (std::size_t i = ib; i < imax; ++i) {
        for (std::size_t j = jb; j < jmax; ++j) {
          t(j, i) = (*this)(i, j);
        }
      }
    }
  }
  return t;
}

Matrix Matrix::select_rows(std::span<const int> rows) const {
  Matrix out(rows.size(), cols_);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const auto i = static_cast<std::size_t>(rows[k]);
    if (i >= rows_) throw std::out_of_range("select_rows: bad index");
    std::copy_n(data_.data() + i * cols_, cols_,
                out.data_.data() + k * cols_);
  }
  return out;
}

Matrix Matrix::select_cols(std::span<const int> cols) const {
  Matrix out(rows_, cols.size());
  for (std::size_t k = 0; k < cols.size(); ++k) {
    const auto j = static_cast<std::size_t>(cols[k]);
    if (j >= cols_) throw std::out_of_range("select_cols: bad index");
    for (std::size_t i = 0; i < rows_; ++i) out(i, k) = (*this)(i, j);
  }
  return out;
}

void Matrix::set_row(std::size_t i, std::span<const double> values) {
  if (values.size() != cols_) throw std::invalid_argument("set_row size");
  std::copy(values.begin(), values.end(), data_.data() + i * cols_);
}

void Matrix::swap_rows(std::size_t i, std::size_t j) {
  if (i == j) return;
  std::swap_ranges(data_.data() + i * cols_, data_.data() + (i + 1) * cols_,
                   data_.data() + j * cols_);
}

void Matrix::swap_cols(std::size_t i, std::size_t j) {
  if (i == j) return;
  for (std::size_t r = 0; r < rows_; ++r) std::swap((*this)(r, i), (*this)(r, j));
}

Vector Matrix::column(std::size_t j) const {
  Vector c(rows_);
  for (std::size_t i = 0; i < rows_; ++i) c[i] = (*this)(i, j);
  return c;
}

void Matrix::set_column(std::size_t j, std::span<const double> values) {
  if (values.size() != rows_) throw std::invalid_argument("set_column size");
  for (std::size_t i = 0; i < rows_; ++i) (*this)(i, j) = values[i];
}

Matrix& Matrix::operator+=(const Matrix& other) {
  if (!same_shape(other)) throw std::invalid_argument("operator+= shape");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  if (!same_shape(other)) throw std::invalid_argument("operator-= shape");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double alpha) {
  for (double& v : data_) v *= alpha;
  return *this;
}

double Matrix::frobenius_norm() const { return norm2(data_); }

double Matrix::max_abs() const { return norm_inf(data_); }

std::string Matrix::shape_string() const {
  return std::to_string(rows_) + "x" + std::to_string(cols_);
}

Matrix operator+(Matrix a, const Matrix& b) {
  REPRO_CHECK(a.same_shape(b), "operator+: shape mismatch");
  return a += b;
}
Matrix operator-(Matrix a, const Matrix& b) {
  REPRO_CHECK(a.same_shape(b), "operator-: shape mismatch");
  return a -= b;
}
// Scaling by a scalar is defined for every shape; no precondition to state.
// repro-lint: allow(contracts)
Matrix operator*(Matrix a, double alpha) { return a *= alpha; }
// repro-lint: allow(contracts)
Matrix operator*(double alpha, Matrix a) { return a *= alpha; }

Vector matvec(const Matrix& a, std::span<const double> x) {
  REPRO_CHECK_DIM(x.size(), a.cols(), "matvec: x length vs columns");
  if (x.size() != a.cols()) throw std::invalid_argument("matvec size");
  Vector y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) y[i] = dot(a.row(i), x);
  return y;
}

Vector matvec_transposed(const Matrix& a, std::span<const double> x) {
  REPRO_CHECK_DIM(x.size(), a.rows(), "matvec_transposed: x length vs rows");
  if (x.size() != a.rows()) throw std::invalid_argument("matvec_transposed");
  Vector y(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) axpy(x[i], a.row(i), y);
  return y;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  REPRO_CHECK(a.same_shape(b), "max_abs_diff: shape mismatch");
  if (!a.same_shape(b)) throw std::invalid_argument("max_abs_diff shape");
  double m = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  }
  return m;
}

// Defined for every shape (the empty maximum is 0); no precondition.
// repro-lint: allow(contracts)
double one_norm(const Matrix& a) {
  Vector colsum(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const auto row = a.row(i);
    for (std::size_t j = 0; j < a.cols(); ++j) colsum[j] += std::abs(row[j]);
  }
  double m = 0.0;
  for (double c : colsum) m = std::max(m, c);
  return m;
}

}  // namespace repro::linalg
