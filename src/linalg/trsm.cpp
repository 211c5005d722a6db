#include "linalg/trsm.h"

#include <algorithm>
#include <stdexcept>

#include "linalg/kernel_telemetry.h"
#include "linalg/simd/kernels.h"
#include "util/contracts.h"
#include "util/stopwatch.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace repro::linalg {
namespace {

// The legacy row update b_j -= l_jk * b_k, kept out of the auto-vectorizer.
// It is the scalar tier's reference loop: under -march=native the compiler
// would otherwise emit the same FMA vectors the SIMD tiers issue, and the
// scalar leg the SIMD speedups are measured against would stop being
// scalar.  Each element's arithmetic is unchanged, and so are the bits.
#if defined(__clang__)
void subtract_scaled_row(std::size_t w, double ljk, const double* bk,
                         double* bj) {
#pragma clang loop vectorize(disable) interleave(disable)
  for (std::size_t c = 0; c < w; ++c) bj[c] -= ljk * bk[c];
}
#else
__attribute__((noinline, optimize("no-tree-vectorize"))) void
subtract_scaled_row(std::size_t w, double ljk, const double* bk, double* bj) {
  for (std::size_t c = 0; c < w; ++c) bj[c] -= ljk * bk[c];
}
#endif

// Forward substitution on the RHS column slab [cb, ce).  Row j of L is
// applied to the whole slab before row j+1 is touched; each column's
// floating-point sequence (including the final division, never a reciprocal
// multiply) is independent of the slab boundaries, so chunking cannot
// change a single bit of the result.
//
// SIMD tiers route the row update through the tier's fused axpy kernel with
// alpha = -ljk; the scalar tier keeps the legacy mul-then-subtract loop
// verbatim, so REPRO_KERNEL=scalar stays bit-identical to the pre-SIMD
// solver (IEEE-754 negation is exact, but FMA fuses the multiply-add, so
// the SIMD result sits inside the documented tier tolerance instead).
//
// use_simd is decided by the caller from the WHOLE problem (b.cols()), never
// from the slab width: a thread-count-dependent slab partition must not be
// able to route a narrow trailing slab onto a different code path (DESIGN.md
// §11 thread-count invariance).  Within axpy every element is one fused
// multiply-add whatever its offset — the tier tails use std::fma for exactly
// this reason — so the slab boundaries stay bitwise irrelevant.
void solve_slab(const Matrix& l, Matrix& b, std::size_t cb, std::size_t ce,
                bool use_simd) {
  const std::size_t r = l.rows();
  const std::size_t w = ce - cb;
  const simd::KernelOps& t = simd::ops();
  for (std::size_t j = 0; j < r; ++j) {
    double* bj = &b(j, cb);
    const double* lj = l.row(j).data();
    for (std::size_t k = 0; k < j; ++k) {
      const double ljk = lj[k];
      const double* bk = &b(k, cb);
      if (use_simd) {
        t.axpy(w, -ljk, bk, bj);
      } else {
        subtract_scaled_row(w, ljk, bk, bj);
      }
    }
    const double ljj = lj[j];
    for (std::size_t c = 0; c < w; ++c) bj[c] /= ljj;
  }
}

}  // namespace

void trsm_lower_inplace(const Matrix& l, Matrix& b) {
  REPRO_CHECK_DIM(l.rows(), l.cols(), "trsm_lower_inplace: square factor");
  REPRO_CHECK_DIM(b.rows(), l.rows(), "trsm_lower_inplace: rhs rows");
  if (l.rows() != l.cols()) {
    throw std::invalid_argument("trsm_lower_inplace: factor " +
                                l.shape_string() + " not square");
  }
  if (b.rows() != l.rows()) {
    throw std::invalid_argument("trsm_lower_inplace: rhs " + b.shape_string() +
                                " vs factor " + l.shape_string());
  }
  const std::size_t r = l.rows(), n = b.cols();
  if (r == 0 || n == 0) return;
  for (std::size_t j = 0; j < r; ++j) {
    if (l(j, j) == 0.0) {
      throw std::invalid_argument("trsm_lower_inplace: zero diagonal pivot");
    }
  }
  util::telemetry::count("linalg.trsm.calls");
  util::telemetry::count("linalg.trsm.flops", n * r * r);
  const util::telemetry::Span span("linalg.trsm");
  const util::Stopwatch sw;

  // One SIMD decision for the whole solve, keyed on the full RHS width so it
  // cannot vary with how the thread pool slices the columns.
  const bool use_simd =
      simd::ops().tier != simd::Tier::kScalar && n >= 8;
  const std::size_t nt = util::thread_count();
  if (nt <= 1 || n * r * r <= 2'000'000 || n <= 1) {
    solve_slab(l, b, 0, n, use_simd);
    record_kernel_throughput("trsm", n * r * r, sw.seconds(), 1);
    return;
  }
  // Wide-enough slabs amortize streaming L once per slab; ~4 slabs per
  // thread keeps the pool load-balanced without per-column overhead.  The
  // grain is rounded up to the widest vector width so interior slab
  // boundaries land on lane boundaries for every tier (belt-and-braces on
  // top of the offset-independent axpy).
  const std::size_t grain =
      (std::max<std::size_t>(32, n / std::max<std::size_t>(1, 4 * nt)) + 7) /
      8 * 8;
  util::parallel_for(0, n, grain, [&](std::size_t cb, std::size_t ce) {
    solve_slab(l, b, cb, ce, use_simd);
  });
  record_kernel_throughput("trsm", n * r * r, sw.seconds(), nt);
}

}  // namespace repro::linalg
