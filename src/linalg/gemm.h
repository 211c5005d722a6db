// Matrix-matrix multiply kernels.
//
// The experiment pipeline multiplies matrices up to a few thousand rows and
// columns (e.g. the path Gram matrix A A^T for ~3.5k paths x ~1.7k
// parameters).  A cache-blocked i-k-j kernel with optional multithreading is
// plenty: it reaches a few GFLOP/s, which keeps full-scale tables in the
// minutes range without pulling in an external BLAS.
#pragma once

#include <cstddef>

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

// Thread configuration for large products.  Kernels run on the shared
// util::ThreadPool; these forward to util::set_threads / util::thread_count
// and are kept for source compatibility — prefer the util API directly.
void set_gemm_threads(std::size_t n);
std::size_t gemm_threads();

}  // namespace repro::linalg
