// AVX-512F micro-kernel tier.  Compiled with -mavx512f unconditionally on
// x86-64 (per-file flag in src/CMakeLists.txt); dispatch routes here only
// after CPUID reports avx512f, so portable binaries carry the tier safely.
// Same determinism story as the avx2 tier: lane grouping and reduction
// order are fixed functions of n.
#include "linalg/simd/kernels.h"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <bit>
#include <cmath>
#include <cstdint>

namespace repro::linalg::simd {
namespace {

// std::fma tail: every element is the identical single-rounded fused op
// whatever its offset, so partition-dependent start offsets (trsm slabs)
// cannot change the bits.
void axpy_avx512(std::size_t n, double alpha, const double* x, double* y) {
  const __m512d va = _mm512_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512d y0 = _mm512_loadu_pd(y + i);
    __m512d y1 = _mm512_loadu_pd(y + i + 8);
    y0 = _mm512_fmadd_pd(va, _mm512_loadu_pd(x + i), y0);
    y1 = _mm512_fmadd_pd(va, _mm512_loadu_pd(x + i + 8), y1);
    _mm512_storeu_pd(y + i, y0);
    _mm512_storeu_pd(y + i + 8, y1);
  }
  for (; i + 8 <= n; i += 8) {
    const __m512d y0 =
        _mm512_fmadd_pd(va, _mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i));
    _mm512_storeu_pd(y + i, y0);
  }
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

double dot_avx512(std::size_t n, const double* x, const double* y) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  __m512d acc2 = _mm512_setzero_pd();
  __m512d acc3 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i),
                           acc0);
    acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(x + i + 8),
                           _mm512_loadu_pd(y + i + 8), acc1);
    acc2 = _mm512_fmadd_pd(_mm512_loadu_pd(x + i + 16),
                           _mm512_loadu_pd(y + i + 16), acc2);
    acc3 = _mm512_fmadd_pd(_mm512_loadu_pd(x + i + 24),
                           _mm512_loadu_pd(y + i + 24), acc3);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i),
                           acc0);
  }
  // _mm512_reduce_add_pd is a fixed lane-combination sequence, deterministic
  // for a given input vector.
  double s = _mm512_reduce_add_pd(
      _mm512_add_pd(_mm512_add_pd(acc0, acc1), _mm512_add_pd(acc2, acc3)));
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

void dot4_avx512(std::size_t n, const double* x, const double* y0,
                 const double* y1, const double* y2, const double* y3,
                 double out[4]) {
  __m512d a0 = _mm512_setzero_pd(), b0 = _mm512_setzero_pd();
  __m512d a1 = _mm512_setzero_pd(), b1 = _mm512_setzero_pd();
  __m512d a2 = _mm512_setzero_pd(), b2 = _mm512_setzero_pd();
  __m512d a3 = _mm512_setzero_pd(), b3 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d x0 = _mm512_loadu_pd(x + i);
    const __m512d x1 = _mm512_loadu_pd(x + i + 8);
    a0 = _mm512_fmadd_pd(x0, _mm512_loadu_pd(y0 + i), a0);
    b0 = _mm512_fmadd_pd(x1, _mm512_loadu_pd(y0 + i + 8), b0);
    a1 = _mm512_fmadd_pd(x0, _mm512_loadu_pd(y1 + i), a1);
    b1 = _mm512_fmadd_pd(x1, _mm512_loadu_pd(y1 + i + 8), b1);
    a2 = _mm512_fmadd_pd(x0, _mm512_loadu_pd(y2 + i), a2);
    b2 = _mm512_fmadd_pd(x1, _mm512_loadu_pd(y2 + i + 8), b2);
    a3 = _mm512_fmadd_pd(x0, _mm512_loadu_pd(y3 + i), a3);
    b3 = _mm512_fmadd_pd(x1, _mm512_loadu_pd(y3 + i + 8), b3);
  }
  for (; i + 8 <= n; i += 8) {
    const __m512d x0 = _mm512_loadu_pd(x + i);
    a0 = _mm512_fmadd_pd(x0, _mm512_loadu_pd(y0 + i), a0);
    a1 = _mm512_fmadd_pd(x0, _mm512_loadu_pd(y1 + i), a1);
    a2 = _mm512_fmadd_pd(x0, _mm512_loadu_pd(y2 + i), a2);
    a3 = _mm512_fmadd_pd(x0, _mm512_loadu_pd(y3 + i), a3);
  }
  double s0 = _mm512_reduce_add_pd(_mm512_add_pd(a0, b0));
  double s1 = _mm512_reduce_add_pd(_mm512_add_pd(a1, b1));
  double s2 = _mm512_reduce_add_pd(_mm512_add_pd(a2, b2));
  double s3 = _mm512_reduce_add_pd(_mm512_add_pd(a3, b3));
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

// dot4 over the chunks both masks admit.  Even chunks go to a, odd chunks to
// b: dot4_avx512's pair loop feeds chunks 2q and 2q + 1 to a and b and its
// trailing chunk (even) to a.  Within a run of consecutive chunks an even
// and an odd chunk go in flight together, as in the dense loop.
void dot4_masked_avx512(std::size_t n, const double* x, const double* y0,
                        const double* y1, const double* y2, const double* y3,
                        const std::uint64_t* mask_x,
                        const std::uint64_t* mask_y, double out[4]) {
  __m512d a0 = _mm512_setzero_pd(), b0 = _mm512_setzero_pd();
  __m512d a1 = _mm512_setzero_pd(), b1 = _mm512_setzero_pd();
  __m512d a2 = _mm512_setzero_pd(), b2 = _mm512_setzero_pd();
  __m512d a3 = _mm512_setzero_pd(), b3 = _mm512_setzero_pd();
  const auto even = [&](std::size_t i) {
    const __m512d xe = _mm512_loadu_pd(x + i);
    a0 = _mm512_fmadd_pd(xe, _mm512_loadu_pd(y0 + i), a0);
    a1 = _mm512_fmadd_pd(xe, _mm512_loadu_pd(y1 + i), a1);
    a2 = _mm512_fmadd_pd(xe, _mm512_loadu_pd(y2 + i), a2);
    a3 = _mm512_fmadd_pd(xe, _mm512_loadu_pd(y3 + i), a3);
  };
  const auto odd = [&](std::size_t i) {
    const __m512d xo = _mm512_loadu_pd(x + i);
    b0 = _mm512_fmadd_pd(xo, _mm512_loadu_pd(y0 + i), b0);
    b1 = _mm512_fmadd_pd(xo, _mm512_loadu_pd(y1 + i), b1);
    b2 = _mm512_fmadd_pd(xo, _mm512_loadu_pd(y2 + i), b2);
    b3 = _mm512_fmadd_pd(xo, _mm512_loadu_pd(y3 + i), b3);
  };
  for_each_chunk_run(n, mask_x, mask_y, [&](std::size_t b, std::size_t e) {
    std::size_t c = b;
    if (c % 2 == 1) odd(c++ * kChunk);
    for (; c + 2 <= e; c += 2) {
      even(c * kChunk);
      odd((c + 1) * kChunk);
    }
    if (c < e) even(c * kChunk);
  });
  std::size_t i = n / kChunk * kChunk;
  double s0 = _mm512_reduce_add_pd(_mm512_add_pd(a0, b0));
  double s1 = _mm512_reduce_add_pd(_mm512_add_pd(a1, b1));
  double s2 = _mm512_reduce_add_pd(_mm512_add_pd(a2, b2));
  double s3 = _mm512_reduce_add_pd(_mm512_add_pd(a3, b3));
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

// dot over the chunks both masks admit: chunk c feeds acc[c % 4] inside
// dot_avx512's 32-wide blocks and acc0 after them.
double dot_masked_avx512(std::size_t n, const double* x, const double* y,
                         const std::uint64_t* mask_x,
                         const std::uint64_t* mask_y) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  __m512d acc2 = _mm512_setzero_pd();
  __m512d acc3 = _mm512_setzero_pd();
  const std::size_t blocked = n / 32 * 4;
  for_each_chunk_run(n, mask_x, mask_y, [&](std::size_t b, std::size_t e) {
    for (std::size_t c = b; c < e; ++c) {
      const __m512d xc = _mm512_loadu_pd(x + c * kChunk);
      const __m512d yc = _mm512_loadu_pd(y + c * kChunk);
      const std::size_t lane = c < blocked ? c % 4 : 0;
      if (lane == 0) {
        acc0 = _mm512_fmadd_pd(xc, yc, acc0);
      } else if (lane == 1) {
        acc1 = _mm512_fmadd_pd(xc, yc, acc1);
      } else if (lane == 2) {
        acc2 = _mm512_fmadd_pd(xc, yc, acc2);
      } else {
        acc3 = _mm512_fmadd_pd(xc, yc, acc3);
      }
    }
  });
  std::size_t i = n / kChunk * kChunk;
  double s = _mm512_reduce_add_pd(
      _mm512_add_pd(_mm512_add_pd(acc0, acc1), _mm512_add_pd(acc2, acc3)));
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

// 8x8 register tile: 8 zmm accumulators, one B load and 8 A broadcasts per
// k step.
void gemm_ukr_avx512(std::size_t kc, const double* apack, const double* bpack,
                     double* c, std::size_t ldc) {
  __m512d acc[8];
  for (auto& v : acc) v = _mm512_setzero_pd();
  for (std::size_t k = 0; k < kc; ++k) {
    const __m512d b0 = _mm512_loadu_pd(bpack);
    acc[0] = _mm512_fmadd_pd(_mm512_set1_pd(apack[0]), b0, acc[0]);
    acc[1] = _mm512_fmadd_pd(_mm512_set1_pd(apack[1]), b0, acc[1]);
    acc[2] = _mm512_fmadd_pd(_mm512_set1_pd(apack[2]), b0, acc[2]);
    acc[3] = _mm512_fmadd_pd(_mm512_set1_pd(apack[3]), b0, acc[3]);
    acc[4] = _mm512_fmadd_pd(_mm512_set1_pd(apack[4]), b0, acc[4]);
    acc[5] = _mm512_fmadd_pd(_mm512_set1_pd(apack[5]), b0, acc[5]);
    acc[6] = _mm512_fmadd_pd(_mm512_set1_pd(apack[6]), b0, acc[6]);
    acc[7] = _mm512_fmadd_pd(_mm512_set1_pd(apack[7]), b0, acc[7]);
    apack += 8;
    bpack += 8;
  }
  for (std::size_t i = 0; i < 8; ++i) {
    double* r = c + i * ldc;
    _mm512_storeu_pd(r, _mm512_add_pd(_mm512_loadu_pd(r), acc[i]));
  }
}

constexpr KernelOps kAvx512Ops = {
    Tier::kAvx512, "avx512", 8,           8,
    /*flops_per_cycle=*/32.0,  // 2 FMA ports x 8 doubles x 2 flops
    axpy_avx512,   dot_avx512, dot4_avx512, gemm_ukr_avx512,
    dot_masked_avx512, dot4_masked_avx512,
};

}  // namespace

const KernelOps* avx512_ops() { return &kAvx512Ops; }

}  // namespace repro::linalg::simd

#else  // !__AVX512F__

namespace repro::linalg::simd {
const KernelOps* avx512_ops() { return nullptr; }
}  // namespace repro::linalg::simd

#endif
