// Dense row-major matrix and vector primitives.
//
// The whole reproduction works with dense double-precision matrices in the
// few-thousand-row range (paths x process parameters), so a single dense
// type with contiguous row-major storage is the right tool: it keeps the
// decomposition kernels (Cholesky/QR/eigen) simple and cache-friendly
// without the complexity of a general expression-template library.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace repro::linalg {

using Vector = std::vector<double>;

// Basic vector kernels.
double dot(std::span<const double> a, std::span<const double> b);
double norm2(std::span<const double> a);
double norm1(std::span<const double> a);
double norm_inf(std::span<const double> a);
// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y);
void scale(std::span<double> x, double alpha);

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  // Row-major nested initializer, e.g. Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);
  static Matrix diagonal(std::span<const double> d);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t i, std::size_t j) {
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  // Pointer arithmetic (not &data_[...]) so a zero-column matrix yields a
  // valid empty span instead of binding a reference into an empty vector.
  std::span<double> row(std::size_t i) {
    return {data_.data() + i * cols_, cols_};
  }
  std::span<const double> row(std::size_t i) const {
    return {data_.data() + i * cols_, cols_};
  }
  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  Matrix transposed() const;

  // Submatrix of the given rows (in the given order).
  Matrix select_rows(std::span<const int> rows) const;
  Matrix select_cols(std::span<const int> cols) const;
  // First c columns.
  Matrix left_cols(std::size_t c) const;

  void set_row(std::size_t i, std::span<const double> values);
  void swap_rows(std::size_t i, std::size_t j);
  void swap_cols(std::size_t i, std::size_t j);

  Vector column(std::size_t j) const;
  void set_column(std::size_t j, std::span<const double> values);

  // Elementwise operations.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double alpha);

  double frobenius_norm() const;
  double max_abs() const;

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  std::string shape_string() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(Matrix a, double alpha);
Matrix operator*(double alpha, Matrix a);

// y = A x
Vector matvec(const Matrix& a, std::span<const double> x);
// y = A^T x
Vector matvec_transposed(const Matrix& a, std::span<const double> x);

// Maximum elementwise |a - b|; matrices must have equal shape.
double max_abs_diff(const Matrix& a, const Matrix& b);

// Induced matrix 1-norm (maximum column absolute sum); pairs with the
// Hager-style ||S^{-1}||_1 estimate in solve.h to form a condition estimate.
double one_norm(const Matrix& a);

}  // namespace repro::linalg
