// Scalar micro-kernel table: the portable reference implementation of every
// primitive, and the dispatch fallback when no SIMD tier is available.  The
// higher-level kernels (gemm/trsm/cholesky) do not call this table on the
// scalar tier — they run their original loops for bit-exactness — but the
// table keeps every tier uniformly testable against the same interface.
// The one exception is gram, whose scalar tier runs dot_masked: the loop of
// linalg::dot over the chunks the row masks admit.
#include "linalg/simd/kernels.h"

#include <cstdint>

namespace repro::linalg::simd {
namespace {

void axpy_scalar(std::size_t n, double alpha, const double* x, double* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

double dot_scalar(std::size_t n, const double* x, const double* y) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

void dot4_scalar(std::size_t n, const double* x, const double* y0,
                 const double* y1, const double* y2, const double* y3,
                 double out[4]) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = x[i];
    s0 += xi * y0[i];
    s1 += xi * y1[i];
    s2 += xi * y2[i];
    s3 += xi * y3[i];
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}

// s + x[0] y[0] + ... + x[n-1] y[n-1] in index order: dot_scalar's loop (and
// linalg::dot's) continued from s.  Out of line, so the compiler sees the
// loop alone, as it sees theirs, and vectorizes or contracts it the same
// way; a run of chunks then gets the bits the dense loop gives it.
__attribute__((noinline)) double dot_from(double s, const double* x,
                                          const double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

// The serial dot over the chunks both masks admit: one dot_from per run of
// consecutive chunks, then one for the tail.  Each run is a whole number of
// chunks, so where the runs split the row does not change the bits.
double dot_masked_scalar(std::size_t n, const double* x, const double* y,
                         const std::uint64_t* mask_x,
                         const std::uint64_t* mask_y) {
  double s = 0.0;
  for_each_chunk_run(n, mask_x, mask_y, [&](std::size_t b, std::size_t e) {
    s = dot_from(s, x + b * kChunk, y + b * kChunk, (e - b) * kChunk);
  });
  const std::size_t i = n / kChunk * kChunk;
  return dot_from(s, x + i, y + i, n - i);
}

void dot4_masked_scalar(std::size_t n, const double* x, const double* y0,
                        const double* y1, const double* y2, const double* y3,
                        const std::uint64_t* mask_x,
                        const std::uint64_t* mask_y, double out[4]) {
  out[0] = dot_masked_scalar(n, x, y0, mask_x, mask_y);
  out[1] = dot_masked_scalar(n, x, y1, mask_x, mask_y);
  out[2] = dot_masked_scalar(n, x, y2, mask_x, mask_y);
  out[3] = dot_masked_scalar(n, x, y3, mask_x, mask_y);
}

constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 8;

void gemm_ukr_scalar(std::size_t kc, const double* apack, const double* bpack,
                     double* c, std::size_t ldc) {
  double acc[kMr][kNr] = {};
  for (std::size_t k = 0; k < kc; ++k) {
    for (std::size_t i = 0; i < kMr; ++i) {
      const double a = apack[k * kMr + i];
      for (std::size_t j = 0; j < kNr; ++j) {
        acc[i][j] += a * bpack[k * kNr + j];
      }
    }
  }
  for (std::size_t i = 0; i < kMr; ++i) {
    for (std::size_t j = 0; j < kNr; ++j) c[i * ldc + j] += acc[i][j];
  }
}

constexpr KernelOps kScalarOps = {
    Tier::kScalar, "scalar", kMr,         kNr,
    /*flops_per_cycle=*/4.0,  // SSE2 baseline: 2-wide multiply + add
    axpy_scalar,   dot_scalar, dot4_scalar, gemm_ukr_scalar,
    dot_masked_scalar, dot4_masked_scalar,
};

}  // namespace

const KernelOps* scalar_ops() { return &kScalarOps; }

}  // namespace repro::linalg::simd
