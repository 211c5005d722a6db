// Dispatch-tier coverage for the SIMD micro-kernel layer (DESIGN.md §11):
// every tier the host can run must agree with the scalar reference within
// the documented reassociation bound, the scalar tier must stay bit-exact
// against the legacy loop nests, results must be thread-count invariant
// within a tier, and unknown/unavailable set_tier requests must leave the
// active tier unchanged while ticking the dispatch_fallback counter.
#include "linalg/simd/dispatch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "linalg/cholesky.h"
#include "linalg/gemm.h"
#include "linalg/matrix.h"
#include "linalg/simd/kernels.h"
#include "linalg/trsm.h"
#include "util/rng.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace repro::linalg {
namespace {

// Agreement bound between a SIMD tier and the scalar reference.  The header
// contract gives |delta| <= c * k * u * sum|a||b| per accumulated element;
// for the k <= a-few-hundred normal-distributed operands used here that is
// well under 1e-10 (the golden-fixture envelope this repo budgets for tier
// drift).
constexpr double kTierTol = 1e-10;

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.normal();
  }
  return m;
}

// Restores the entry tier (and thread count) even if a test fails mid-way,
// so a failure cannot leak a forced tier into later tests.
class TierGuard {
 public:
  TierGuard()
      : tier_(simd::tier_name(simd::active_tier())),
        threads_(util::thread_count()) {}
  ~TierGuard() {
    simd::set_tier(tier_);
    util::set_threads(threads_);
  }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;

 private:
  std::string tier_;
  std::size_t threads_;
};

std::uint64_t counter_value(std::string_view name) {
  for (const auto& c : util::telemetry::snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// The legacy i-k-j multiply loop, replicated verbatim from the pre-SIMD
// kernel: the scalar tier must reproduce this bit for bit.
Matrix legacy_multiply(const Matrix& a, const Matrix& b) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  Matrix c(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    double* ci = c.row(i).data();
    for (std::size_t p = 0; p < k; ++p) {
      const double aip = a(i, p);
      if (aip == 0.0) continue;
      const double* bp = b.row(p).data();
      for (std::size_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
    }
  }
  return c;
}

TEST(SimdDispatch, ScalarAlwaysAvailable) {
  EXPECT_TRUE(simd::tier_available(simd::Tier::kScalar));
  const std::vector<simd::Tier> tiers = simd::available_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), simd::Tier::kScalar);
  for (simd::Tier t : tiers) EXPECT_TRUE(simd::tier_available(t));
}

TEST(SimdDispatch, TierNamesRoundTrip) {
  TierGuard guard;
  for (simd::Tier t : simd::available_tiers()) {
    EXPECT_TRUE(simd::set_tier(simd::tier_name(t)));
    EXPECT_EQ(simd::active_tier(), t);
  }
}

TEST(SimdDispatch, BestAvailableTierIsRunnable) {
  EXPECT_TRUE(simd::tier_available(simd::best_available_tier()));
}

TEST(SimdDispatch, UnknownTierKeepsActiveTierAndCounts) {
  // A rejected request must not downgrade the process: whatever tier was
  // active stays active, the fallback counter ticks, and set_tier reports
  // failure.  Checked from every startable tier, not just scalar.
  TierGuard guard;
  util::telemetry::set_enabled(true);
  for (simd::Tier t : simd::available_tiers()) {
    ASSERT_TRUE(simd::set_tier(simd::tier_name(t)));
    const std::uint64_t before =
        counter_value("linalg.simd.dispatch_fallback");
    EXPECT_FALSE(simd::set_tier("not-a-tier"));
    EXPECT_EQ(simd::active_tier(), t) << simd::tier_name(t);
    EXPECT_EQ(counter_value("linalg.simd.dispatch_fallback"), before + 1)
        << simd::tier_name(t);
  }
}

TEST(SimdDispatch, UnavailableTierKeepsActiveTierAndCounts) {
  // Whichever of avx2/neon the host lacks; skip on the (exotic) host that
  // can run both.
  const char* missing = nullptr;
  if (!simd::tier_available(simd::Tier::kAvx2)) missing = "avx2";
  else if (!simd::tier_available(simd::Tier::kNeon)) missing = "neon";
  if (missing == nullptr) GTEST_SKIP() << "host runs every probed tier";
  TierGuard guard;
  util::telemetry::set_enabled(true);
  const simd::Tier best = simd::best_available_tier();
  ASSERT_TRUE(simd::set_tier(simd::tier_name(best)));
  const std::uint64_t before = counter_value("linalg.simd.dispatch_fallback");
  EXPECT_FALSE(simd::set_tier(missing));
  EXPECT_EQ(simd::active_tier(), best);
  EXPECT_EQ(counter_value("linalg.simd.dispatch_fallback"), before + 1);
}

TEST(SimdDispatch, TheoreticalPeakPositiveAndThreadScaled) {
  for (simd::Tier t : simd::available_tiers()) {
    const double one = simd::theoretical_peak_gflops(t, 1);
    EXPECT_GT(one, 0.0) << simd::tier_name(t);
    EXPECT_DOUBLE_EQ(simd::theoretical_peak_gflops(t, 4), 4.0 * one);
    // threads == 0 is treated as 1 (serial fallback paths).
    EXPECT_DOUBLE_EQ(simd::theoretical_peak_gflops(t, 0), one);
  }
}

TEST(SimdKernels, ScalarGemmBitExactAgainstLegacyLoop) {
  TierGuard guard;
  ASSERT_TRUE(simd::set_tier("scalar"));
  util::set_threads(1);
  // Big enough that a SIMD tier would take the packed path (> 65536 flops):
  // proves the scalar tier routes through the legacy loop regardless.
  const Matrix a = random_matrix(60, 70, 21);
  const Matrix b = random_matrix(70, 52, 22);
  const Matrix c = multiply(a, b);
  const Matrix ref = legacy_multiply(a, b);
  EXPECT_EQ(max_abs_diff(c, ref), 0.0);
}

TEST(SimdKernels, PrimitivesMatchScalarWithinBound) {
  const simd::KernelOps* sc = simd::scalar_ops();
  ASSERT_NE(sc, nullptr);
  const std::size_t n = 259;  // odd remainder exercises every tail loop
  const Matrix x = random_matrix(5, n, 23);
  for (simd::Tier t : simd::available_tiers()) {
    if (t == simd::Tier::kScalar) continue;
    const simd::KernelOps* ops =
        t == simd::Tier::kAvx2    ? simd::avx2_ops()
        : t == simd::Tier::kAvx512 ? simd::avx512_ops()
                                   : simd::neon_ops();
    ASSERT_NE(ops, nullptr) << simd::tier_name(t);
    // dot
    const double dref = sc->dot(n, x.row(0).data(), x.row(1).data());
    EXPECT_NEAR(ops->dot(n, x.row(0).data(), x.row(1).data()), dref,
                kTierTol * (1.0 + std::abs(dref)))
        << simd::tier_name(t);
    // dot4
    double quad[4];
    ops->dot4(n, x.row(0).data(), x.row(1).data(), x.row(2).data(),
              x.row(3).data(), x.row(4).data(), quad);
    for (std::size_t r = 0; r < 4; ++r) {
      const double qref =
          sc->dot(n, x.row(0).data(), x.row(1 + r).data());
      EXPECT_NEAR(quad[r], qref, kTierTol * (1.0 + std::abs(qref)))
          << simd::tier_name(t) << " lane " << r;
    }
    // axpy
    std::vector<double> ya(x.row(1).data(), x.row(1).data() + n);
    std::vector<double> yb = ya;
    sc->axpy(n, 0.37, x.row(0).data(), ya.data());
    ops->axpy(n, 0.37, x.row(0).data(), yb.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(yb[i], ya[i], kTierTol) << simd::tier_name(t) << " i=" << i;
    }
  }
}

const simd::KernelOps* table_for(simd::Tier t) {
  switch (t) {
    case simd::Tier::kScalar: return simd::scalar_ops();
    case simd::Tier::kAvx2: return simd::avx2_ops();
    case simd::Tier::kAvx512: return simd::avx512_ops();
    case simd::Tier::kNeon: return simd::neon_ops();
  }
  return nullptr;
}

bool same_double(double u, double v) {
  return std::memcmp(&u, &v, sizeof(double)) == 0;
}

TEST(SimdKernels, MaskedDotsKeepTheDenseBits) {
  // Five rows whose 8-double chunks are zero about half the time; a chunk's
  // bit is set in a row's mask when the chunk holds a nonzero.  Every tier's
  // masked kernels must give the dense kernels' bits both on those masks
  // (skipping zero products) and on all-ones masks (skipping nothing).
  for (simd::Tier t : simd::available_tiers()) {
    const simd::KernelOps* ops = table_for(t);
    ASSERT_NE(ops, nullptr) << simd::tier_name(t);
    for (std::size_t n = 0; n < 1100; n += n < 80 ? 1 : 97) {
      util::Rng rng(41 + n);
      Matrix x(5, n);
      const std::size_t words = simd::mask_words(n);
      std::vector<std::uint64_t> masks(5 * words + 1, 0), ones(words + 1, 0);
      for (std::size_t c = 0; c < n / simd::kChunk; ++c) {
        ones[c / 64] |= std::uint64_t{1} << (c % 64);
      }
      for (std::size_t r = 0; r < 5; ++r) {
        for (std::size_t p = 0; p < n; ++p) {
          const bool live = rng.uniform() < 0.5 || p >= n / 8 * 8;
          x(r, p) = live ? rng.normal() : (p % 3 == 0 ? -0.0 : 0.0);
          if (x(r, p) != 0.0 && p < n / 8 * 8) {
            masks[r * words + p / 512] |= std::uint64_t{1} << (p / 8 % 64);
          }
        }
      }
      const double* row[5] = {x.row(0).data(), x.row(1).data(),
                              x.row(2).data(), x.row(3).data(),
                              x.row(4).data()};
      std::vector<std::uint64_t> quad(words + 1, 0);
      for (std::size_t w = 0; w < words; ++w) {
        for (std::size_t r = 1; r < 5; ++r) quad[w] |= masks[r * words + w];
      }
      const std::string where =
          std::string(simd::tier_name(t)) + " n=" + std::to_string(n);
      for (std::size_t r = 1; r < 5; ++r) {
        const double dense = ops->dot(n, row[0], row[r]);
        EXPECT_TRUE(same_double(
            ops->dot_masked(n, row[0], row[r], masks.data(),
                            masks.data() + r * words),
            dense))
            << where;
        EXPECT_TRUE(same_double(
            ops->dot_masked(n, row[0], row[r], ones.data(), ones.data()),
            dense))
            << where;
      }
      double dense4[4], masked4[4], ones4[4];
      ops->dot4(n, row[0], row[1], row[2], row[3], row[4], dense4);
      ops->dot4_masked(n, row[0], row[1], row[2], row[3], row[4],
                       masks.data(), quad.data(), masked4);
      ops->dot4_masked(n, row[0], row[1], row[2], row[3], row[4],
                       ones.data(), ones.data(), ones4);
      for (std::size_t r = 0; r < 4; ++r) {
        EXPECT_TRUE(same_double(masked4[r], dense4[r])) << where << " r=" << r;
        EXPECT_TRUE(same_double(ones4[r], dense4[r])) << where << " r=" << r;
      }
    }
  }
}

TEST(SimdKernels, GramCountsIssuedFlopsAndSkippedChunks) {
  // 8 rows of 2 full chunks and a 4-wide tail: chunk 0 is live in the even
  // rows, chunk 1 in rows 0-3.  On the scalar tier every cell runs its own
  // common chunks, so the counters follow from the masks alone.
  TierGuard guard;
  ASSERT_TRUE(simd::set_tier("scalar"));
  Matrix a(8, 20);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t p = 0; p < 20; ++p) {
      const bool live = p >= 16 || (p < 8 ? r % 2 == 0 : r < 4);
      a(r, p) = live ? 1.0 + static_cast<double>(r + p) : 0.0;
    }
  }
  std::uint64_t common = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      common += (i % 2 == 0 && j % 2 == 0) + (i < 4 && j < 4);
    }
  }
  const bool was_enabled = util::telemetry::enabled();
  util::telemetry::set_enabled(true);
  const std::uint64_t flops0 = counter_value("linalg.syrk.flops");
  const std::uint64_t skipped0 = counter_value("linalg.syrk.chunks_skipped");
  (void)gram(a);
  EXPECT_EQ(counter_value("linalg.syrk.flops") - flops0,
            2 * (8 * common + 36 * 4));
  EXPECT_EQ(counter_value("linalg.syrk.chunks_skipped") - skipped0,
            36 * 2 - common);
  util::telemetry::set_enabled(was_enabled);
}

TEST(SimdKernels, GemmAgreesAcrossTiersWithinBound) {
  TierGuard guard;
  util::set_threads(1);
  // Ragged shapes exercise the zero-padded edge tiles of every micro-kernel
  // geometry (4x8, 8x8, 4x4).
  const Matrix a = random_matrix(131, 147, 31);
  const Matrix b = random_matrix(147, 122, 32);
  ASSERT_TRUE(simd::set_tier("scalar"));
  const Matrix ref = multiply(a, b);
  const Matrix ref_bt = multiply_bt(a, b.transposed());
  const Matrix ref_at = multiply_at(a.transposed(), b);
  for (simd::Tier t : simd::available_tiers()) {
    if (t == simd::Tier::kScalar) continue;
    ASSERT_TRUE(simd::set_tier(simd::tier_name(t)));
    EXPECT_LT(max_abs_diff(multiply(a, b), ref), kTierTol)
        << simd::tier_name(t);
    EXPECT_LT(max_abs_diff(multiply_bt(a, b.transposed()), ref_bt), kTierTol)
        << simd::tier_name(t);
    EXPECT_LT(max_abs_diff(multiply_at(a.transposed(), b), ref_at), kTierTol)
        << simd::tier_name(t);
  }
}

TEST(SimdKernels, GramAgreesAcrossTiersAndStaysSymmetric) {
  TierGuard guard;
  util::set_threads(1);
  const Matrix a = random_matrix(133, 117, 33);
  ASSERT_TRUE(simd::set_tier("scalar"));
  const Matrix ref = gram(a);
  for (simd::Tier t : simd::available_tiers()) {
    if (t == simd::Tier::kScalar) continue;
    ASSERT_TRUE(simd::set_tier(simd::tier_name(t)));
    const Matrix w = gram(a);
    EXPECT_LT(max_abs_diff(w, ref), kTierTol) << simd::tier_name(t);
    // Exact symmetry survives every tier: only the lower triangle is
    // computed, the upper is a mirror copy.
    EXPECT_EQ(max_abs_diff(w, w.transposed()), 0.0) << simd::tier_name(t);
  }
}

TEST(SimdKernels, TrsmAndCholeskyAgreeAcrossTiers) {
  TierGuard guard;
  util::set_threads(1);
  // SPD system: W = A A^T + n I, solved for a multi-RHS slab.
  const std::size_t n = 96;
  const Matrix a = random_matrix(n, 2 * n, 34);
  Matrix w = gram(a);
  for (std::size_t i = 0; i < n; ++i) w(i, i) += static_cast<double>(n);
  const Matrix rhs = random_matrix(n, 40, 35);
  ASSERT_TRUE(simd::set_tier("scalar"));
  const CholFactors f_ref = chol_factor(w);
  ASSERT_TRUE(f_ref.ok);
  Matrix x_ref = rhs;
  trsm_lower_inplace(f_ref.l, x_ref);
  for (simd::Tier t : simd::available_tiers()) {
    if (t == simd::Tier::kScalar) continue;
    ASSERT_TRUE(simd::set_tier(simd::tier_name(t)));
    const CholFactors f = chol_factor(w);
    ASSERT_TRUE(f.ok) << simd::tier_name(t);
    EXPECT_LT(max_abs_diff(f.l, f_ref.l), kTierTol) << simd::tier_name(t);
    Matrix x = rhs;
    trsm_lower_inplace(f_ref.l, x);  // same factor isolates the trsm delta
    EXPECT_LT(max_abs_diff(x, x_ref), kTierTol) << simd::tier_name(t);
  }
}

TEST(SimdKernels, ResultsThreadCountInvariantWithinTier) {
  TierGuard guard;
  // Big enough that 4 threads actually split the row blocks and slabs.
  const Matrix a = random_matrix(300, 280, 41);
  const Matrix b = random_matrix(280, 260, 42);
  // A^T-form GEMM: 2*280*300*100 flops clears the packed-path threshold so
  // SIMD tiers split the row blocks across the pool.
  const Matrix bt = random_matrix(300, 100, 43);
  // trsm with 100 RHS columns: the 4-thread slab partition ends in a narrow
  // trailing slab ([96,100), width 4 < one avx2 iteration), the exact shape
  // that once routed serial and threaded runs onto different code paths.
  Matrix w = gram(a);
  for (std::size_t i = 0; i < 300; ++i) w(i, i) += 300.0;
  const CholFactors f = chol_factor(std::move(w));
  ASSERT_TRUE(f.ok);
  const Matrix rhs = random_matrix(300, 100, 45);
  for (simd::Tier t : simd::available_tiers()) {
    ASSERT_TRUE(simd::set_tier(simd::tier_name(t)));
    util::set_threads(1);
    const Matrix c1 = multiply(a, b);
    const Matrix w1 = gram(a);
    const Matrix cat1 = multiply_at(a, bt);
    Matrix x1 = rhs;
    trsm_lower_inplace(f.l, x1);
    util::set_threads(4);
    EXPECT_EQ(max_abs_diff(multiply(a, b), c1), 0.0) << simd::tier_name(t);
    EXPECT_EQ(max_abs_diff(gram(a), w1), 0.0) << simd::tier_name(t);
    EXPECT_EQ(max_abs_diff(multiply_at(a, bt), cat1), 0.0)
        << simd::tier_name(t);
    Matrix x4 = rhs;
    trsm_lower_inplace(f.l, x4);
    EXPECT_EQ(max_abs_diff(x4, x1), 0.0) << simd::tier_name(t);
  }
}

}  // namespace
}  // namespace repro::linalg
