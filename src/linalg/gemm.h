// Matrix-matrix multiply kernels.
//
// The experiment pipeline multiplies matrices up to a few thousand rows and
// columns (e.g. the path Gram matrix A A^T for ~3.5k paths x ~1.7k
// parameters).  A cache-blocked i-k-j kernel with optional multithreading is
// plenty: it reaches a few GFLOP/s, which keeps full-scale tables in the
// minutes range without pulling in an external BLAS.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.h"

namespace repro::linalg {

// C = A * B
Matrix multiply(const Matrix& a, const Matrix& b);
// C = A * B^T  (computed without materializing B^T)
Matrix multiply_bt(const Matrix& a, const Matrix& b);
// C = A^T * B
Matrix multiply_at(const Matrix& a, const Matrix& b);
// In-place forms for blocked factorizations, which update the trailing
// block of a matrix (rows r0.., columns c0..) without copying it out.  Same
// kernels and thread-count invariance as the products above: multiply_bt is
// add_multiply_bt_trailing at r0 = c0 = 0, and multiply_at shares
// multiply_at_trailing's unsplit path.
//   multiply_at_trailing:     returns A[r0.., c0..]^T * B; an output of at
//                             most 65,536 elements splits the reduction into
//                             fixed slabs summed in order (see gemm.cpp)
//   add_multiply_bt_trailing: C[r0.., c0..] += A * B^T
Matrix multiply_at_trailing(const Matrix& a, std::size_t r0, std::size_t c0,
                            const Matrix& b);
void add_multiply_bt_trailing(const Matrix& a, const Matrix& b, Matrix& c,
                              std::size_t r0, std::size_t c0);
// Symmetric rank-k update (SYRK): returns A * A^T, exactly symmetric by
// construction — only the lower triangle is computed, in cache-sized tile
// pairs, then mirrored (~half the flops of the full-GEMM route; the saving
// is recorded under linalg.syrk.flops_saved).
Matrix gram(const Matrix& a);

// Row-compressed sparse matrix: each row keeps its nonzero entries as
// ascending column indices with their values.  Built once, row by row, then
// only read; the Monte-Carlo engine stores A_rem and A_meas this way (a
// path touches only its own gates' variables and the regions it crosses,
// so ~5-16 % of A = G Sigma is nonzero on the Table 1 circuits).
class SparseRows {
 public:
  explicit SparseRows(std::size_t cols) : cols_(cols) {}

  // Appends a row of cols() values; zeros (either sign) are dropped.
  void append_row(std::span<const double> values);

  std::size_t rows() const { return start_.size() - 1; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return val_.size(); }
  // Entries [row_begin(i), row_end(i)) of col_index() / value() form row i.
  std::size_t row_begin(std::size_t i) const { return start_[i]; }
  std::size_t row_end(std::size_t i) const { return start_[i + 1]; }
  std::size_t col_index(std::size_t e) const { return col_[e]; }
  double value(std::size_t e) const { return val_[e]; }

 private:
  std::size_t cols_;
  std::vector<std::size_t> start_{0};
  std::vector<std::size_t> col_;
  std::vector<double> val_;
};

// C = A * B for a row-compressed A, with the same bits as multiply() on the
// dense A for finite B, under every dispatch tier: it takes the route the
// dense product takes for the dense shape and keeps that route's order of
// floating-point operations, skipping only the exact no-ops of the zero
// entries (see gemm.cpp).  Counted under linalg.spmm.*, not linalg.gemm.*.
Matrix multiply(const SparseRows& a, const Matrix& b);

}  // namespace repro::linalg
