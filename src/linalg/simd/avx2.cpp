// AVX2+FMA micro-kernel tier.  This translation unit is compiled with
// -mavx2 -mfma regardless of the global architecture flags (see
// src/CMakeLists.txt); dispatch only routes here after CPUID confirms the
// host supports both, so a portable binary can safely carry this tier.
//
// Determinism within the tier: every kernel fixes its lane/accumulator
// grouping as a function of n alone, so two calls with the same inputs give
// the same bits on any thread.  Horizontal reductions combine accumulators
// in a fixed order; remainders are handled by a trailing scalar loop folded
// in last.
#include "linalg/simd/kernels.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>
#include <cstdint>

namespace repro::linalg::simd {
namespace {

// The scalar tail fuses with std::fma so every element is the identical
// single-rounded operation whatever its offset: callers (trsm slabs) may
// start axpy at partition-dependent offsets, and an unfused tail would make
// the bits depend on where the element falls relative to the lane grid.
void axpy_avx2(std::size_t n, double alpha, const double* x, double* y) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d y0 = _mm256_loadu_pd(y + i);
    __m256d y1 = _mm256_loadu_pd(y + i + 4);
    y0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i), y0);
    y1 = _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i + 4), y1);
    _mm256_storeu_pd(y + i, y0);
    _mm256_storeu_pd(y + i + 4, y1);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d y0 =
        _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i));
    _mm256_storeu_pd(y + i, y0);
  }
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

// Sums the four lanes of (a + b) in a fixed order: (lo+hi) pairwise.
double hsum2(__m256d a, __m256d b) {
  const __m256d s = _mm256_add_pd(a, b);
  const __m128d lo = _mm256_castpd256_pd128(s);
  const __m128d hi = _mm256_extractf128_pd(s, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

double dot_avx2(std::size_t n, const double* x, const double* y) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 4),
                           _mm256_loadu_pd(y + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 8),
                           _mm256_loadu_pd(y + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 12),
                           _mm256_loadu_pd(y + i + 12), acc3);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i),
                           acc0);
  }
  double s = hsum2(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

void dot4_avx2(std::size_t n, const double* x, const double* y0,
               const double* y1, const double* y2, const double* y3,
               double out[4]) {
  // Two accumulators per right-hand row: 8 independent FMA chains keep both
  // FMA ports busy while x is loaded once per 4 lanes instead of once per
  // cell — the SYRK tile kernel's entire advantage over per-cell dot.
  __m256d a0 = _mm256_setzero_pd(), b0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd(), b1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd(), b2 = _mm256_setzero_pd();
  __m256d a3 = _mm256_setzero_pd(), b3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d x0 = _mm256_loadu_pd(x + i);
    const __m256d x1 = _mm256_loadu_pd(x + i + 4);
    a0 = _mm256_fmadd_pd(x0, _mm256_loadu_pd(y0 + i), a0);
    b0 = _mm256_fmadd_pd(x1, _mm256_loadu_pd(y0 + i + 4), b0);
    a1 = _mm256_fmadd_pd(x0, _mm256_loadu_pd(y1 + i), a1);
    b1 = _mm256_fmadd_pd(x1, _mm256_loadu_pd(y1 + i + 4), b1);
    a2 = _mm256_fmadd_pd(x0, _mm256_loadu_pd(y2 + i), a2);
    b2 = _mm256_fmadd_pd(x1, _mm256_loadu_pd(y2 + i + 4), b2);
    a3 = _mm256_fmadd_pd(x0, _mm256_loadu_pd(y3 + i), a3);
    b3 = _mm256_fmadd_pd(x1, _mm256_loadu_pd(y3 + i + 4), b3);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d x0 = _mm256_loadu_pd(x + i);
    a0 = _mm256_fmadd_pd(x0, _mm256_loadu_pd(y0 + i), a0);
    a1 = _mm256_fmadd_pd(x0, _mm256_loadu_pd(y1 + i), a1);
    a2 = _mm256_fmadd_pd(x0, _mm256_loadu_pd(y2 + i), a2);
    a3 = _mm256_fmadd_pd(x0, _mm256_loadu_pd(y3 + i), a3);
  }
  double s0 = hsum2(a0, b0);
  double s1 = hsum2(a1, b1);
  double s2 = hsum2(a2, b2);
  double s3 = hsum2(a3, b3);
  for (; i < n; ++i) {
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

// dot4 over the chunks both masks admit: as in dot4_avx2's 8-wide loop, a
// chunk's first four lanes go to a and its last four to b.
void dot4_masked_avx2(std::size_t n, const double* x, const double* y0,
                      const double* y1, const double* y2, const double* y3,
                      const std::uint64_t* mask_x, const std::uint64_t* mask_y,
                      double out[4]) {
  __m256d a0 = _mm256_setzero_pd(), b0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd(), b1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd(), b2 = _mm256_setzero_pd();
  __m256d a3 = _mm256_setzero_pd(), b3 = _mm256_setzero_pd();
  for_each_chunk_run(n, mask_x, mask_y, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b * kChunk; i < e * kChunk; i += kChunk) {
      const __m256d x0 = _mm256_loadu_pd(x + i);
      const __m256d x1 = _mm256_loadu_pd(x + i + 4);
      a0 = _mm256_fmadd_pd(x0, _mm256_loadu_pd(y0 + i), a0);
      b0 = _mm256_fmadd_pd(x1, _mm256_loadu_pd(y0 + i + 4), b0);
      a1 = _mm256_fmadd_pd(x0, _mm256_loadu_pd(y1 + i), a1);
      b1 = _mm256_fmadd_pd(x1, _mm256_loadu_pd(y1 + i + 4), b1);
      a2 = _mm256_fmadd_pd(x0, _mm256_loadu_pd(y2 + i), a2);
      b2 = _mm256_fmadd_pd(x1, _mm256_loadu_pd(y2 + i + 4), b2);
      a3 = _mm256_fmadd_pd(x0, _mm256_loadu_pd(y3 + i), a3);
      b3 = _mm256_fmadd_pd(x1, _mm256_loadu_pd(y3 + i + 4), b3);
    }
  });
  std::size_t i = n / kChunk * kChunk;
  for (; i + 4 <= n; i += 4) {
    const __m256d x0 = _mm256_loadu_pd(x + i);
    a0 = _mm256_fmadd_pd(x0, _mm256_loadu_pd(y0 + i), a0);
    a1 = _mm256_fmadd_pd(x0, _mm256_loadu_pd(y1 + i), a1);
    a2 = _mm256_fmadd_pd(x0, _mm256_loadu_pd(y2 + i), a2);
    a3 = _mm256_fmadd_pd(x0, _mm256_loadu_pd(y3 + i), a3);
  }
  double s0 = hsum2(a0, b0);
  double s1 = hsum2(a1, b1);
  double s2 = hsum2(a2, b2);
  double s3 = hsum2(a3, b3);
  for (; i < n; ++i) {
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

// dot over the chunks both masks admit.  Inside dot_avx2's 16-wide blocks an
// even chunk feeds acc0/acc1 and an odd one acc2/acc3; a chunk after them
// feeds both halves to acc0, like the 4-wide remainder loop.
double dot_masked_avx2(std::size_t n, const double* x, const double* y,
                       const std::uint64_t* mask_x,
                       const std::uint64_t* mask_y) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  const std::size_t blocked = n / 16 * 2;
  for_each_chunk_run(n, mask_x, mask_y, [&](std::size_t b, std::size_t e) {
    for (std::size_t c = b; c < e; ++c) {
      const std::size_t i = c * kChunk;
      const __m256d x0 = _mm256_loadu_pd(x + i);
      const __m256d x1 = _mm256_loadu_pd(x + i + 4);
      const __m256d yc0 = _mm256_loadu_pd(y + i);
      const __m256d yc1 = _mm256_loadu_pd(y + i + 4);
      if (c >= blocked) {
        acc0 = _mm256_fmadd_pd(x0, yc0, acc0);
        acc0 = _mm256_fmadd_pd(x1, yc1, acc0);
      } else if (c % 2 == 0) {
        acc0 = _mm256_fmadd_pd(x0, yc0, acc0);
        acc1 = _mm256_fmadd_pd(x1, yc1, acc1);
      } else {
        acc2 = _mm256_fmadd_pd(x0, yc0, acc2);
        acc3 = _mm256_fmadd_pd(x1, yc1, acc3);
      }
    }
  });
  std::size_t i = n / kChunk * kChunk;
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i),
                           acc0);
  }
  double s = hsum2(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

// 4x8 register tile: 8 ymm accumulators (4 rows x 2 vectors), 2 B loads and
// 4 A broadcasts per k step — the classic packed-panel inner kernel.
void gemm_ukr_avx2(std::size_t kc, const double* apack, const double* bpack,
                   double* c, std::size_t ldc) {
  __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
  __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
  __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
  __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
  for (std::size_t k = 0; k < kc; ++k) {
    const __m256d b0 = _mm256_loadu_pd(bpack);
    const __m256d b1 = _mm256_loadu_pd(bpack + 4);
    __m256d a = _mm256_broadcast_sd(apack + 0);
    c00 = _mm256_fmadd_pd(a, b0, c00);
    c01 = _mm256_fmadd_pd(a, b1, c01);
    a = _mm256_broadcast_sd(apack + 1);
    c10 = _mm256_fmadd_pd(a, b0, c10);
    c11 = _mm256_fmadd_pd(a, b1, c11);
    a = _mm256_broadcast_sd(apack + 2);
    c20 = _mm256_fmadd_pd(a, b0, c20);
    c21 = _mm256_fmadd_pd(a, b1, c21);
    a = _mm256_broadcast_sd(apack + 3);
    c30 = _mm256_fmadd_pd(a, b0, c30);
    c31 = _mm256_fmadd_pd(a, b1, c31);
    apack += 4;
    bpack += 8;
  }
  double* r0 = c;
  double* r1 = c + ldc;
  double* r2 = c + 2 * ldc;
  double* r3 = c + 3 * ldc;
  _mm256_storeu_pd(r0, _mm256_add_pd(_mm256_loadu_pd(r0), c00));
  _mm256_storeu_pd(r0 + 4, _mm256_add_pd(_mm256_loadu_pd(r0 + 4), c01));
  _mm256_storeu_pd(r1, _mm256_add_pd(_mm256_loadu_pd(r1), c10));
  _mm256_storeu_pd(r1 + 4, _mm256_add_pd(_mm256_loadu_pd(r1 + 4), c11));
  _mm256_storeu_pd(r2, _mm256_add_pd(_mm256_loadu_pd(r2), c20));
  _mm256_storeu_pd(r2 + 4, _mm256_add_pd(_mm256_loadu_pd(r2 + 4), c21));
  _mm256_storeu_pd(r3, _mm256_add_pd(_mm256_loadu_pd(r3), c30));
  _mm256_storeu_pd(r3 + 4, _mm256_add_pd(_mm256_loadu_pd(r3 + 4), c31));
}

constexpr KernelOps kAvx2Ops = {
    Tier::kAvx2, "avx2", 4,         8,
    /*flops_per_cycle=*/16.0,  // 2 FMA ports x 4 doubles x 2 flops
    axpy_avx2,   dot_avx2, dot4_avx2, gemm_ukr_avx2,
    dot_masked_avx2, dot4_masked_avx2,
};

}  // namespace

const KernelOps* avx2_ops() { return &kAvx2Ops; }

}  // namespace repro::linalg::simd

#else  // !(__AVX2__ && __FMA__)

namespace repro::linalg::simd {
const KernelOps* avx2_ops() { return nullptr; }
}  // namespace repro::linalg::simd

#endif
