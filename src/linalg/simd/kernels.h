// Internal micro-kernel tables behind linalg::simd dispatch.
//
// One KernelOps per tier; every pointer is non-null in a registered table.
// The four primitives cover the dense hot loops:
//
//   axpy      y[0..n) += alpha * x[0..n)           (GEMM A^T-form, trsm slab)
//   dot       sum x[i]*y[i]                        (Cholesky inner products)
//   dot4      four dots of one x against y0..y3    (SYRK tile cells)
//   dot_masked, dot4_masked
//             dot and dot4 over only the 8-double chunks two chunk masks
//             admit (the Gram of a sparse A; see below)
//   gemm_ukr  C(mr x nr) += Apack(mr x kc) * Bpack(kc x nr)
//             Apack is k-major groups of mr values, Bpack k-major groups of
//             nr values (the packed-panel layout produced by gemm.cpp); C is
//             row-major with leading dimension ldc.
//
// Raw intrinsics live only in the per-tier .cpp files of this directory
// (enforced by repro_lint's simd-confinement check).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "linalg/simd/dispatch.h"

namespace repro::linalg::simd {

// Chunk masks.  Chunk c of a length-n row is [8c, 8c + 8), for the n / 8
// full chunks only; bit c % 64 of word c / 64 marks it.  The masked kernels
// run a chunk when its bit is set in both masks, in ascending order, each
// into the accumulator the dense kernel gives it, then the dense kernel's
// reduction and tail [8 (n / 8), n) unchanged.  A skipped chunk therefore
// changes nothing when all its products are zeros (DESIGN.md §11), and an
// all-ones mask is the dense kernel, bit for bit.
constexpr std::size_t kChunk = 8;
constexpr std::size_t kMaskBits = 64;

// Words in a mask over the full chunks of a length-n row.
constexpr std::size_t mask_words(std::size_t n) {
  return (n / kChunk + kMaskBits - 1) / kMaskBits;
}

// Calls f(begin, end) for every run [begin, end) of consecutive chunks set
// in both masks, in ascending order (a run does not cross a mask word).  A
// dense row is one run a word, which the kernels walk like the dense loop.
template <class F>
inline void for_each_chunk_run(std::size_t n, const std::uint64_t* mask_x,
                               const std::uint64_t* mask_y, F&& f) {
  const std::size_t words = mask_words(n);
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = mask_x[w] & mask_y[w];
    while (bits != 0) {
      const auto lo = static_cast<std::size_t>(std::countr_zero(bits));
      const auto len = static_cast<std::size_t>(std::countr_one(bits >> lo));
      f(w * kMaskBits + lo, w * kMaskBits + lo + len);
      bits &= bits + (std::uint64_t{1} << lo);  // the carry clears the run
    }
  }
}

struct KernelOps {
  Tier tier = Tier::kScalar;
  const char* name = "scalar";
  // GEMM micro-tile geometry for gemm_ukr (mr rows of C, nr columns).
  std::size_t mr = 4;
  std::size_t nr = 8;
  // Nominal per-core double-precision FLOPs/cycle at this tier, the
  // numerator convention behind theoretical_peak_gflops.
  double flops_per_cycle = 4.0;

  void (*axpy)(std::size_t n, double alpha, const double* x, double* y);
  double (*dot)(std::size_t n, const double* x, const double* y);
  void (*dot4)(std::size_t n, const double* x, const double* y0,
               const double* y1, const double* y2, const double* y3,
               double out[4]);
  void (*gemm_ukr)(std::size_t kc, const double* apack, const double* bpack,
                   double* c, std::size_t ldc);
  double (*dot_masked)(std::size_t n, const double* x, const double* y,
                       const std::uint64_t* mask_x,
                       const std::uint64_t* mask_y);
  void (*dot4_masked)(std::size_t n, const double* x, const double* y0,
                      const double* y1, const double* y2, const double* y3,
                      const std::uint64_t* mask_x,
                      const std::uint64_t* mask_y, double out[4]);
};

// Per-tier tables.  A tier that is not compiled for this target returns
// nullptr; dispatch treats it as unavailable.
const KernelOps* scalar_ops();
const KernelOps* avx2_ops();
const KernelOps* avx512_ops();
const KernelOps* neon_ops();

// Table for the active tier (never null; scalar when nothing wider is
// available).  Hot kernels load this once per call.
const KernelOps& ops();

}  // namespace repro::linalg::simd
