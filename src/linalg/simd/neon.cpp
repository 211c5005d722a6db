// AArch64 NEON micro-kernel tier (guarded; Advanced SIMD is mandatory on
// arm64, so availability is a compile-time fact rather than a CPUID probe).
// Same determinism story as the x86 tiers: lane grouping and reduction
// order are fixed functions of n.
#include "linalg/simd/kernels.h"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include <cmath>
#include <cstdint>

namespace repro::linalg::simd {
namespace {

// std::fma tail: every element is the identical single-rounded fused op
// whatever its offset, so partition-dependent start offsets (trsm slabs)
// cannot change the bits.
void axpy_neon(std::size_t n, double alpha, const double* x, double* y) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float64x2_t y0 = vld1q_f64(y + i);
    float64x2_t y1 = vld1q_f64(y + i + 2);
    y0 = vfmaq_n_f64(y0, vld1q_f64(x + i), alpha);
    y1 = vfmaq_n_f64(y1, vld1q_f64(x + i + 2), alpha);
    vst1q_f64(y + i, y0);
    vst1q_f64(y + i + 2, y1);
  }
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

double dot_neon(std::size_t n, const double* x, const double* y) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 = vfmaq_f64(acc0, vld1q_f64(x + i), vld1q_f64(y + i));
    acc1 = vfmaq_f64(acc1, vld1q_f64(x + i + 2), vld1q_f64(y + i + 2));
  }
  double s = vaddvq_f64(vaddq_f64(acc0, acc1));
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

void dot4_neon(std::size_t n, const double* x, const double* y0,
               const double* y1, const double* y2, const double* y3,
               double out[4]) {
  float64x2_t a0 = vdupq_n_f64(0.0), a1 = vdupq_n_f64(0.0);
  float64x2_t a2 = vdupq_n_f64(0.0), a3 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t x0 = vld1q_f64(x + i);
    a0 = vfmaq_f64(a0, x0, vld1q_f64(y0 + i));
    a1 = vfmaq_f64(a1, x0, vld1q_f64(y1 + i));
    a2 = vfmaq_f64(a2, x0, vld1q_f64(y2 + i));
    a3 = vfmaq_f64(a3, x0, vld1q_f64(y3 + i));
  }
  double s0 = vaddvq_f64(a0);
  double s1 = vaddvq_f64(a1);
  double s2 = vaddvq_f64(a2);
  double s3 = vaddvq_f64(a3);
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

// dot4 over the chunks both masks admit: a chunk is four of dot4_neon's
// 2-wide steps, all into the cell's one accumulator.
void dot4_masked_neon(std::size_t n, const double* x, const double* y0,
                      const double* y1, const double* y2, const double* y3,
                      const std::uint64_t* mask_x, const std::uint64_t* mask_y,
                      double out[4]) {
  float64x2_t a0 = vdupq_n_f64(0.0), a1 = vdupq_n_f64(0.0);
  float64x2_t a2 = vdupq_n_f64(0.0), a3 = vdupq_n_f64(0.0);
  for_each_chunk_run(n, mask_x, mask_y, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b * kChunk; i < e * kChunk; i += 2) {
      const float64x2_t x0 = vld1q_f64(x + i);
      a0 = vfmaq_f64(a0, x0, vld1q_f64(y0 + i));
      a1 = vfmaq_f64(a1, x0, vld1q_f64(y1 + i));
      a2 = vfmaq_f64(a2, x0, vld1q_f64(y2 + i));
      a3 = vfmaq_f64(a3, x0, vld1q_f64(y3 + i));
    }
  });
  std::size_t i = n / kChunk * kChunk;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t x0 = vld1q_f64(x + i);
    a0 = vfmaq_f64(a0, x0, vld1q_f64(y0 + i));
    a1 = vfmaq_f64(a1, x0, vld1q_f64(y1 + i));
    a2 = vfmaq_f64(a2, x0, vld1q_f64(y2 + i));
    a3 = vfmaq_f64(a3, x0, vld1q_f64(y3 + i));
  }
  double s0 = vaddvq_f64(a0);
  double s1 = vaddvq_f64(a1);
  double s2 = vaddvq_f64(a2);
  double s3 = vaddvq_f64(a3);
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

// dot over the chunks both masks admit: a chunk is two of dot_neon's 4-wide
// steps, each feeding acc0 then acc1.
double dot_masked_neon(std::size_t n, const double* x, const double* y,
                       const std::uint64_t* mask_x,
                       const std::uint64_t* mask_y) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  for_each_chunk_run(n, mask_x, mask_y, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b * kChunk; i < e * kChunk; i += 4) {
      acc0 = vfmaq_f64(acc0, vld1q_f64(x + i), vld1q_f64(y + i));
      acc1 = vfmaq_f64(acc1, vld1q_f64(x + i + 2), vld1q_f64(y + i + 2));
    }
  });
  std::size_t i = n / kChunk * kChunk;
  for (; i + 4 <= n; i += 4) {
    acc0 = vfmaq_f64(acc0, vld1q_f64(x + i), vld1q_f64(y + i));
    acc1 = vfmaq_f64(acc1, vld1q_f64(x + i + 2), vld1q_f64(y + i + 2));
  }
  double s = vaddvq_f64(vaddq_f64(acc0, acc1));
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

// 4x4 register tile: 8 q-register accumulators (4 rows x 2 vectors).
void gemm_ukr_neon(std::size_t kc, const double* apack, const double* bpack,
                   double* c, std::size_t ldc) {
  float64x2_t acc[4][2];
  for (auto& row : acc) {
    row[0] = vdupq_n_f64(0.0);
    row[1] = vdupq_n_f64(0.0);
  }
  for (std::size_t k = 0; k < kc; ++k) {
    const float64x2_t b0 = vld1q_f64(bpack);
    const float64x2_t b1 = vld1q_f64(bpack + 2);
    for (std::size_t i = 0; i < 4; ++i) {
      acc[i][0] = vfmaq_n_f64(acc[i][0], b0, apack[i]);
      acc[i][1] = vfmaq_n_f64(acc[i][1], b1, apack[i]);
    }
    apack += 4;
    bpack += 4;
  }
  for (std::size_t i = 0; i < 4; ++i) {
    double* r = c + i * ldc;
    vst1q_f64(r, vaddq_f64(vld1q_f64(r), acc[i][0]));
    vst1q_f64(r + 2, vaddq_f64(vld1q_f64(r + 2), acc[i][1]));
  }
}

constexpr KernelOps kNeonOps = {
    Tier::kNeon, "neon", 4,         4,
    /*flops_per_cycle=*/8.0,  // 2 FMA pipes x 2 doubles x 2 flops
    axpy_neon,   dot_neon, dot4_neon, gemm_ukr_neon,
    dot_masked_neon, dot4_masked_neon,
};

}  // namespace

const KernelOps* neon_ops() { return &kNeonOps; }

}  // namespace repro::linalg::simd

#else  // !__aarch64__

namespace repro::linalg::simd {
const KernelOps* neon_ops() { return nullptr; }
}  // namespace repro::linalg::simd

#endif
