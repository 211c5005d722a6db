#include "linalg/gemm.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "linalg/kernel_telemetry.h"
#include "linalg/simd/kernels.h"
#include "util/contracts.h"
#include "util/stopwatch.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace repro::linalg {
namespace {

// One counter pair for all four GEMM entry points: call count and the
// multiply-add FLOP estimate (2 * m * k * n; the Gram variants count the
// triangle they actually compute).  Incremented once per call, never per
// element, so the MC hot loop pays one relaxed-atomic bump per chunk GEMM.
void count_gemm(std::size_t flops) {
  util::telemetry::count("linalg.gemm.calls");
  util::telemetry::count("linalg.gemm.flops", flops);
}

// Counters for the SYRK-style symmetric kernel: the flops actually issued
// on the computed triangle (2 per multiply-add, over the chunks the row masks
// let through, plus every cell's tail), the flops the symmetry saved versus
// the 2*k*n^2 full-GEMM route, and the zero chunks the masks skipped.
void count_syrk(std::size_t k, std::size_t n, std::size_t flops,
                std::size_t chunks_skipped) {
  util::telemetry::count("linalg.syrk.calls");
  util::telemetry::count("linalg.syrk.flops", flops);
  util::telemetry::count("linalg.syrk.flops_saved", k * n * (n - 1));
  util::telemetry::count("linalg.syrk.chunks_skipped", chunks_skipped);
}

// Runs fn(begin, end) over [0, total) through the shared thread pool.  Every
// output row is computed by exactly one chunk with the same sequential inner
// loops as the serial path, so results are bit-identical for any thread
// count.  Falls back to inline execution for small problems where scheduling
// overhead would dominate.
template <typename Fn>
void parallel_rows(std::size_t total, std::size_t flops_per_row, Fn&& fn) {
  const std::size_t nt = util::thread_count();
  if (total * flops_per_row <= 4'000'000 || nt <= 1 || total <= 1) {
    fn(std::size_t{0}, total);
    return;
  }
  // ~4 chunks per thread for dynamic load balance without per-row overhead.
  const std::size_t grain = std::max<std::size_t>(1, total / (4 * nt));
  util::parallel_for(0, total, grain, fn);
}

// True when the active SIMD tier should take this GEMM.  Tiny products stay
// on the legacy loops even under a SIMD tier: packing overhead dominates
// below ~64k flops (MC chunk solves), and the size test keeps the chosen
// code path — hence the exact bit pattern — a pure function of the shapes.
bool use_simd_gemm(std::size_t flops) {
  return simd::ops().tier != simd::Tier::kScalar && flops > 65'536;
}

// ---------------------------------------------------------------------------
// Packed-panel GEMM driver (SIMD tiers): C += A * B with A and B supplied as
// element accessors so one driver serves A*B, A^T*B, and A*B^T without
// materializing transposes.  B blocks are packed once into nr-column panels
// and shared by every row chunk; each chunk packs its own mr-row A panels
// and calls the tier micro-kernel on full tiles (edge tiles go through a
// zero-padded local buffer so the kernel never writes outside C).
//
// Determinism: the block geometry (kKc/kMc/kNc, mr/nr) is fixed per tier and
// every C element is written by exactly one row block, so results are
// bit-identical across thread counts — only across *tiers* do the FMA
// reassociations differ (DESIGN.md §11).
// ---------------------------------------------------------------------------

constexpr std::size_t kKc = 256;   // k-panel depth (A panel ~192 KiB in L2)
constexpr std::size_t kMc = 96;    // row block height; multiple of mr 4 and 8
constexpr std::size_t kNc = 1024;  // column block width (B panel ~2 MiB)
// Largest output (elements) for which multiply_at_trailing splits the
// reduction into per-slab partial products (one m x n buffer per slab).
constexpr std::size_t kSplitOutputMax = 65'536;

template <typename AGet, typename BGet>
void gemm_packed(std::size_t m, std::size_t k, std::size_t n,
                 const AGet& aget, const BGet& bget, double* c,
                 std::size_t ldc) {
  const simd::KernelOps& t = simd::ops();
  const std::size_t mr = t.mr, nr = t.nr;
  // One B-panel buffer per gemm call, reused across every block — amortized
  // over the whole product, not per-element work.  Sized to the largest
  // block this product packs, so small products do not clear a full
  // kKc x kNc panel.
  // repro-lint: allow(hot-path-alloc)
  std::vector<double> bpack(std::min(kKc, k) *
                            ((std::min(kNc, n) + nr - 1) / nr) * nr);
  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t nc = std::min(kNc, n - jc);
    const std::size_t npanels = (nc + nr - 1) / nr;
    for (std::size_t pc = 0; pc < k; pc += kKc) {
      const std::size_t kc = std::min(kKc, k - pc);
      double* bp = bpack.data();
      for (std::size_t jp = 0; jp < npanels; ++jp) {
        const std::size_t j0 = jc + jp * nr;
        const std::size_t jw = std::min(nr, jc + nc - j0);
        for (std::size_t p = 0; p < kc; ++p) {
          for (std::size_t j = 0; j < jw; ++j) *bp++ = bget(pc + p, j0 + j);
          for (std::size_t j = jw; j < nr; ++j) *bp++ = 0.0;
        }
      }
      const std::size_t nblocks = (m + kMc - 1) / kMc;
      const auto run_blocks = [&](std::size_t bb, std::size_t be) {
        // Chunk-local A panel and edge-tile scratch: one allocation per
        // pool task, amortized over the task's whole row-block range.
        // repro-lint: allow(hot-path-alloc)
        std::vector<double> apack(kMc * kc);
        // repro-lint: allow(hot-path-alloc)
        std::vector<double> tmp(mr * nr);
        for (std::size_t blk = bb; blk < be; ++blk) {
          const std::size_t i0 = blk * kMc;
          const std::size_t mc = std::min(kMc, m - i0);
          const std::size_t mpanels = (mc + mr - 1) / mr;
          double* ap = apack.data();
          for (std::size_t ip = 0; ip < mpanels; ++ip) {
            const std::size_t r0 = i0 + ip * mr;
            const std::size_t rw = std::min(mr, i0 + mc - r0);
            for (std::size_t p = 0; p < kc; ++p) {
              for (std::size_t r = 0; r < rw; ++r) *ap++ = aget(r0 + r, pc + p);
              for (std::size_t r = rw; r < mr; ++r) *ap++ = 0.0;
            }
          }
          for (std::size_t ip = 0; ip < mpanels; ++ip) {
            const std::size_t r0 = i0 + ip * mr;
            const std::size_t rw = std::min(mr, i0 + mc - r0);
            const double* apanel = apack.data() + ip * mr * kc;
            for (std::size_t jp = 0; jp < npanels; ++jp) {
              const std::size_t j0 = jc + jp * nr;
              const std::size_t jw = std::min(nr, jc + nc - j0);
              const double* bpanel = bpack.data() + jp * nr * kc;
              if (rw == mr && jw == nr) {
                t.gemm_ukr(kc, apanel, bpanel, c + r0 * ldc + j0, ldc);
              } else {
                std::fill(tmp.begin(), tmp.end(), 0.0);
                t.gemm_ukr(kc, apanel, bpanel, tmp.data(), nr);
                for (std::size_t r = 0; r < rw; ++r) {
                  for (std::size_t j = 0; j < jw; ++j) {
                    c[(r0 + r) * ldc + j0 + j] += tmp[r * nr + j];
                  }
                }
              }
            }
          }
        }
      };
      const std::size_t nt = util::thread_count();
      if (nt <= 1 || nblocks <= 1 || 2 * m * kc * nc <= 4'000'000) {
        run_blocks(0, nblocks);
      } else {
        util::parallel_for(0, nblocks, 1, run_blocks);
      }
    }
  }
}

// The legacy route's row update C_i += a_ip * B_p.  multiply() and the
// sparse product share this one loop so that, when the compiler contracts
// it into FMA (-march=native), both contract it the same way.
inline void legacy_row_update(double* ci, double aip, const double* bp,
                              std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
}

// Threads the throughput gauge actually spans: the pool count when the
// problem is big enough to have been distributed, else one.
std::size_t gemm_threads_used(std::size_t flops) {
  return flops > 4'000'000 ? util::thread_count() : 1;
}

// A[r0.., c0..]^T * B, shapes already checked: the one A^T B product behind
// multiply_at (the whole of A) and multiply_at_trailing (a trailing block).
Matrix multiply_at_block(const Matrix& a, std::size_t r0, std::size_t c0,
                         const Matrix& b) {
  const std::size_t m = a.cols() - c0, k = b.rows(), n = b.cols();
  const std::size_t flops = 2 * m * k * n;
  count_gemm(flops);
  const util::Stopwatch sw;
  Matrix c(m, n);
  const auto ablk = [&](std::size_t p, std::size_t i) {
    return a(r0 + p, c0 + i);
  };
  if (use_simd_gemm(flops)) {
    // Packing absorbs the strided reads of A's columns once per panel
    // instead of once per inner-loop pass.
    gemm_packed(
        m, k, n, [&](std::size_t i, std::size_t p) { return ablk(p, i); },
        [&](std::size_t p, std::size_t j) { return b(p, j); },
        c.data().data(), c.cols());
  } else {
    // Parallelize over output rows with a transposed access of A (strided
    // reads of A are the price; k is the long dimension) rather than stripe
    // the k-loop into thread-local buffers, which would cost memory.
    parallel_rows(m, k * n / std::max<std::size_t>(m, 1) + n,
                  [&](std::size_t rb, std::size_t re) {
                    for (std::size_t i = rb; i < re; ++i) {
                      double* ci = c.row(i).data();
                      for (std::size_t p = 0; p < k; ++p) {
                        const double api = ablk(p, i);
                        if (api == 0.0) continue;
                        const double* bp = b.row(p).data();
                        for (std::size_t j = 0; j < n; ++j) {
                          ci[j] += api * bp[j];
                        }
                      }
                    }
                  });
  }
  record_kernel_throughput("gemm", flops, sw.seconds(),
                           gemm_threads_used(flops));
  return c;
}

}  // namespace

Matrix multiply(const Matrix& a, const Matrix& b) {
  REPRO_CHECK_DIM(a.cols(), b.rows(), "multiply: inner dimensions");
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("multiply: " + a.shape_string() + " * " +
                                b.shape_string());
  }
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  const std::size_t flops = 2 * m * k * n;
  count_gemm(flops);
  const util::Stopwatch sw;
  Matrix c(m, n);
  if (use_simd_gemm(flops)) {
    gemm_packed(
        m, k, n, [&](std::size_t i, std::size_t p) { return a(i, p); },
        [&](std::size_t p, std::size_t j) { return b(p, j); },
        c.data().data(), c.cols());
  } else {
    parallel_rows(m, k * n, [&](std::size_t rb, std::size_t re) {
      for (std::size_t i = rb; i < re; ++i) {
        double* ci = c.row(i).data();
        for (std::size_t p = 0; p < k; ++p) {
          const double aip = a(i, p);
          if (aip == 0.0) continue;  // sensitivity matrices are fairly sparse
          legacy_row_update(ci, aip, b.row(p).data(), n);
        }
      }
    });
  }
  record_kernel_throughput("gemm", flops, sw.seconds(),
                           gemm_threads_used(flops));
  return c;
}

void SparseRows::append_row(std::span<const double> values) {
  REPRO_CHECK_DIM(values.size(), cols_, "SparseRows::append_row: row width");
  if (values.size() != cols_) {
    throw std::invalid_argument("SparseRows::append_row: row of " +
                                std::to_string(values.size()) +
                                " values, expected " + std::to_string(cols_));
  }
  for (std::size_t j = 0; j < cols_; ++j) {
    if (values[j] == 0.0) continue;
    col_.push_back(j);
    val_.push_back(values[j]);
  }
  start_.push_back(val_.size());
}

// Why the bits match multiply() on the dense A (finite B):
//   * SIMD route.  gemm_packed forms each C element as a sum over kKc-deep
//     k-panels in panel order; each panel sum starts at +0 and adds a_ip *
//     b_pj by sequential FMA in ascending p (every tier's micro-kernel).
//     Here each row runs the same panels: acc = 0, one tier axpy per entry
//     (fused on every element, tail included), then C_i += acc.  A zero
//     a_ip is an exact no-op there, fma(0, b, s) = s up to the sign of a
//     zero acc, and C_i never holds -0, so C_i + acc cannot tell the
//     difference; a panel with no entries adds nothing, like C_i + 0.
//   * Legacy route (scalar tier, or a dense shape at or below the SIMD
//     threshold): multiply() runs legacy_row_update over the nonzero a_ip
//     in ascending p, which is exactly the stored entries in order.
// The route is chosen by use_simd_gemm on the dense shape, as multiply()
// chooses it, so the two agree on every tier and every shape.
Matrix multiply(const SparseRows& a, const Matrix& b) {
  REPRO_CHECK_DIM(a.cols(), b.rows(), "multiply: sparse inner dimensions");
  if (a.cols() != b.rows()) {
    throw std::invalid_argument(
        "multiply: sparse " + std::to_string(a.rows()) + "x" +
        std::to_string(a.cols()) + " * " + b.shape_string());
  }
  const std::size_t m = a.rows(), n = b.cols();
  const std::size_t flops = 2 * a.nnz() * n;
  util::telemetry::count("linalg.spmm.calls");
  util::telemetry::count("linalg.spmm.flops", flops);
  const util::Stopwatch sw;
  const simd::KernelOps& t = simd::ops();
  const bool simd_route = use_simd_gemm(2 * m * a.cols() * n);
  Matrix c(m, n);
  const auto run_rows = [&](std::size_t rb, std::size_t re) {
    // One panel accumulator per task, reused by every row it runs.
    std::vector<double> acc(simd_route ? n : 0);
    for (std::size_t i = rb; i < re; ++i) {
      double* ci = c.row(i).data();
      const std::size_t end = a.row_end(i);
      std::size_t e = a.row_begin(i);
      if (!simd_route) {
        for (; e < end; ++e) {
          legacy_row_update(ci, a.value(e), b.row(a.col_index(e)).data(), n);
        }
        continue;
      }
      while (e < end) {
        const std::size_t panel_end = (a.col_index(e) / kKc + 1) * kKc;
        std::fill(acc.begin(), acc.end(), 0.0);
        for (; e < end && a.col_index(e) < panel_end; ++e) {
          t.axpy(n, a.value(e), b.row(a.col_index(e)).data(), acc.data());
        }
        for (std::size_t j = 0; j < n; ++j) ci[j] += acc[j];
      }
    }
  };
  parallel_rows(m, flops / std::max<std::size_t>(m, 1), run_rows);
  record_kernel_throughput("spmm", flops, sw.seconds(),
                           gemm_threads_used(flops));
  return c;
}

Matrix multiply_bt(const Matrix& a, const Matrix& b) {
  REPRO_CHECK_DIM(a.cols(), b.cols(), "multiply_bt: inner dimensions");
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("multiply_bt: " + a.shape_string() + " * " +
                                b.shape_string() + "^T");
  }
  Matrix c(a.rows(), b.rows());
  add_multiply_bt_trailing(a, b, c, 0, 0);
  return c;
}

Matrix multiply_at(const Matrix& a, const Matrix& b) {
  REPRO_CHECK_DIM(a.rows(), b.rows(), "multiply_at: inner dimensions");
  if (a.rows() != b.rows()) {
    throw std::invalid_argument("multiply_at: " + a.shape_string() + "^T * " +
                                b.shape_string());
  }
  return multiply_at_block(a, 0, 0, b);
}

Matrix multiply_at_trailing(const Matrix& a, std::size_t r0, std::size_t c0,
                            const Matrix& b) {
  REPRO_CHECK(r0 <= a.rows() && c0 <= a.cols(),
              "multiply_at_trailing: block corner outside the matrix");
  REPRO_CHECK_DIM(a.rows() - r0, b.rows(),
                  "multiply_at_trailing: inner dimensions");
  if (r0 > a.rows() || c0 > a.cols() || a.rows() - r0 != b.rows()) {
    throw std::invalid_argument("multiply_at_trailing: " + a.shape_string() +
                                " block vs " + b.shape_string());
  }
  const std::size_t m = a.cols() - c0, k = b.rows(), n = b.cols();
  const std::size_t flops = 2 * m * k * n;
  if (!use_simd_gemm(flops) || m * n > kSplitOutputMax) {
    return multiply_at_block(a, r0, c0, b);
  }
  // A short output over a long reduction (V^T C in blocked QR) leaves too
  // few row blocks to share out, so the reduction is split instead: one
  // partial product per kKc-row slab, computed in parallel, then added in
  // slab order.  Slab bounds depend only on k, so the sum does not depend
  // on the thread count.
  count_gemm(flops);
  const util::Stopwatch sw;
  const std::size_t nslabs = (k + kKc - 1) / kKc;
  std::vector<Matrix> part(nslabs);
  util::parallel_for(0, nslabs, 1, [&](std::size_t sb, std::size_t se) {
    for (std::size_t sl = sb; sl < se; ++sl) {
      const std::size_t p0 = sl * kKc;
      part[sl] = Matrix(m, n);
      gemm_packed(
          m, std::min(kKc, k - p0), n,
          [&](std::size_t i, std::size_t p) { return a(r0 + p0 + p, c0 + i); },
          [&](std::size_t p, std::size_t j) { return b(p0 + p, j); },
          part[sl].data().data(), n);
    }
  });
  Matrix c = std::move(part[0]);
  for (std::size_t sl = 1; sl < nslabs; ++sl) c += part[sl];
  record_kernel_throughput("gemm", flops, sw.seconds(),
                           gemm_threads_used(flops));
  return c;
}

void add_multiply_bt_trailing(const Matrix& a, const Matrix& b, Matrix& c,
                              std::size_t r0, std::size_t c0) {
  REPRO_CHECK_DIM(a.cols(), b.cols(), "add_multiply_bt_trailing: inner");
  REPRO_CHECK(r0 <= c.rows() && c0 <= c.cols() && c.rows() - r0 == a.rows() &&
                  c.cols() - c0 == b.rows(),
              "add_multiply_bt_trailing: block shape vs product");
  if (a.cols() != b.cols() || r0 > c.rows() || c0 > c.cols() ||
      c.rows() - r0 != a.rows() || c.cols() - c0 != b.rows()) {
    throw std::invalid_argument("add_multiply_bt_trailing: " +
                                a.shape_string() + " * " + b.shape_string() +
                                "^T into " + c.shape_string() + " block");
  }
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  const std::size_t flops = 2 * m * k * n;
  count_gemm(flops);
  const util::Stopwatch sw;
  double* c00 = c.data().data() + r0 * c.cols() + c0;
  if (use_simd_gemm(flops)) {
    gemm_packed(
        m, k, n, [&](std::size_t i, std::size_t p) { return a(i, p); },
        [&](std::size_t p, std::size_t j) { return b(j, p); }, c00, c.cols());
  } else {
    parallel_rows(m, k * n, [&](std::size_t rb, std::size_t re) {
      for (std::size_t i = rb; i < re; ++i) {
        double* ci = c00 + i * c.cols();
        for (std::size_t j = 0; j < n; ++j) ci[j] += dot(a.row(i), b.row(j));
      }
    });
  }
  record_kernel_throughput("gemm", flops, sw.seconds(),
                           gemm_threads_used(flops));
}

namespace {

// Which chunks of A's rows hold a nonzero, for the Gram (simd::kChunk
// doubles a chunk; mask layout in simd/kernels.h).  quad(q) is the union of
// rows 4q..4q+3: a dot4 quad runs on row i's mask and its quad's union, a
// superset of each cell's common chunks, so skipping still drops only zero
// products.  A row holding inf or NaN is dense: zero times it is NaN, so no
// chunk may be skipped in any cell it is part of, and such a cell runs on
// all(), which is the dense kernel.  Rows are scanned by one task each.
class GramMasks {
 public:
  // parallel: spread the scan over the pool (the tile loop's own choice).
  GramMasks(const Matrix& a, bool parallel)
      : words_(simd::mask_words(a.cols())),
        all_(words_, 0),
        rows_(a.rows() * words_, 0),
        quads_(a.rows() / 4 * words_, 0),
        row_dense_(a.rows(), 0),
        quad_dense_(a.rows() / 4, 0) {
    const std::size_t k = a.cols(), chunks = k / simd::kChunk;
    for (std::size_t c = 0; c < chunks; ++c) set(all_.data(), c);
    // On the bits: a value is nonzero when any bit but the sign is set, and
    // inf or NaN when its exponent field is all ones.
    constexpr std::uint64_t kExponent = 0x7ff0000000000000ULL;
    const auto scan_rows = [&](std::size_t rb, std::size_t re) {
      for (std::size_t i = rb; i < re; ++i) {
        const double* x = a.row(i).data();
        std::uint64_t* m = rows_.data() + i * words_;
        std::uint64_t non_finite = 0;
        for (std::size_t c = 0; c < chunks; ++c) {
          std::uint64_t any = 0;
          for (std::size_t e = c * simd::kChunk; e < (c + 1) * simd::kChunk;
               ++e) {
            const auto u = std::bit_cast<std::uint64_t>(x[e]);
            any |= u << 1;
            non_finite |= (u & kExponent) == kExponent ? 1 : 0;
          }
          if (any != 0) set(m, c);
        }
        for (std::size_t e = chunks * simd::kChunk; e < k; ++e) {
          const auto u = std::bit_cast<std::uint64_t>(x[e]);
          non_finite |= (u & kExponent) == kExponent ? 1 : 0;
        }
        row_dense_[i] = non_finite != 0 ? 1 : 0;
      }
    };
    if (parallel) {
      util::parallel_for(0, a.rows(), 16, scan_rows);
    } else {
      scan_rows(0, a.rows());
    }
    for (std::size_t q = 0; q < quad_dense_.size(); ++q) {
      std::uint64_t* u = quads_.data() + q * words_;
      for (std::size_t j = 4 * q; j < 4 * q + 4; ++j) {
        for (std::size_t w = 0; w < words_; ++w) u[w] |= row(j)[w];
        quad_dense_[q] |= row_dense_[j];
      }
    }
  }

  std::size_t words() const { return words_; }
  const std::uint64_t* all() const { return all_.data(); }
  const std::uint64_t* row(std::size_t i) const {
    return rows_.data() + i * words_;
  }
  const std::uint64_t* quad(std::size_t q) const {
    return quads_.data() + q * words_;
  }
  bool row_dense(std::size_t i) const { return row_dense_[i] != 0; }
  bool quad_dense(std::size_t q) const { return quad_dense_[q] != 0; }

 private:
  static void set(std::uint64_t* m, std::size_t c) {
    m[c / simd::kMaskBits] |= std::uint64_t{1} << (c % simd::kMaskBits);
  }

  std::size_t words_;
  std::vector<std::uint64_t> all_, rows_, quads_;
  std::vector<unsigned char> row_dense_, quad_dense_;
};

// Chunks set in both masks: what a masked kernel runs.
std::size_t common_chunks(std::size_t words, const std::uint64_t* mx,
                          const std::uint64_t* my) {
  std::size_t c = 0;
  for (std::size_t w = 0; w < words; ++w) {
    c += static_cast<std::size_t>(std::popcount(mx[w] & my[w]));
  }
  return c;
}

}  // namespace

// A A^T exists for every shape; no dimension precondition to state.
// repro-lint: allow(contracts)
Matrix gram(const Matrix& a) {
  const std::size_t n = a.rows(), k = a.cols();
  const util::Stopwatch sw;
  const simd::KernelOps& t = simd::ops();
  const bool use_simd = t.tier != simd::Tier::kScalar;
  // SYRK: compute only the lower triangle as independent kTile x kTile tile
  // pairs, then mirror.  Each cell is the tier's dot of rows i and j (the
  // scalar tier's is linalg::dot's loop) — argument-symmetric bit-for-bit,
  // so the mirrored matrix matches the full product exactly — and is
  // written by exactly one tile pair, so the result does not depend on the
  // thread count.  The flattened pair list load-balances the triangle
  // instead of handing one chunk the long first rows.  SIMD tiers run cells
  // in j-quads through the tier's dot4 kernel (one pass of row i feeds four
  // cells); the quads start at multiples of 4, so their grouping does not
  // depend on the thread count either.  Every cell runs masked, over the
  // chunks its rows share (GramMasks), with the dense kernel's bits.
  constexpr std::size_t kTile = 64;
  const std::size_t ntiles = (n + kTile - 1) / kTile;
  const std::size_t npairs = ntiles * (ntiles + 1) / 2;
  const std::size_t nt = util::thread_count();
  const bool parallel = nt > 1 && npairs > 1 && k * n * n > 8'000'000;
  const GramMasks masks(a, parallel);
  const std::size_t words = masks.words();
  const std::size_t chunks = k / simd::kChunk;
  const std::size_t tail = k - chunks * simd::kChunk;
  Matrix c(n, n);
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(npairs);
  for (std::size_t ti = 0; ti < ntiles; ++ti) {
    for (std::size_t tj = 0; tj <= ti; ++tj) pairs.emplace_back(ti, tj);
  }
  std::atomic<std::size_t> chunks_run{0};  // summed over cells
  const auto run_pairs = [&](std::size_t pb, std::size_t pe) {
    std::size_t run = 0;
    for (std::size_t p = pb; p < pe; ++p) {
      const std::size_t ib = pairs[p].first * kTile;
      const std::size_t ie = std::min(n, ib + kTile);
      const std::size_t jb = pairs[p].second * kTile;
      const std::size_t je = std::min(n, jb + kTile);
      for (std::size_t i = ib; i < ie; ++i) {
        const std::size_t jhi = std::min(je, i + 1);
        const double* xi = a.row(i).data();
        const bool dense_i = masks.row_dense(i);
        std::size_t j = jb;
        if (use_simd) {
          for (; j + 4 <= jhi; j += 4) {
            const bool dense = dense_i || masks.quad_dense(j / 4);
            const std::uint64_t* mx = dense ? masks.all() : masks.row(i);
            const std::uint64_t* my = dense ? masks.all() : masks.quad(j / 4);
            t.dot4_masked(k, xi, a.row(j).data(), a.row(j + 1).data(),
                          a.row(j + 2).data(), a.row(j + 3).data(), mx, my,
                          c.row(i).data() + j);
            run += 4 * common_chunks(words, mx, my);
          }
        }
        for (; j < jhi; ++j) {
          const bool dense = dense_i || masks.row_dense(j);
          const std::uint64_t* mx = dense ? masks.all() : masks.row(i);
          const std::uint64_t* my = dense ? masks.all() : masks.row(j);
          c(i, j) = t.dot_masked(k, xi, a.row(j).data(), mx, my);
          run += common_chunks(words, mx, my);
        }
      }
    }
    chunks_run.fetch_add(run, std::memory_order_relaxed);
  };
  if (!parallel) {
    run_pairs(0, npairs);
  } else {
    const std::size_t grain = std::max<std::size_t>(1, npairs / (8 * nt));
    util::parallel_for(0, npairs, grain, run_pairs);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) c(i, j) = c(j, i);
  }
  const std::size_t cells = n * (n + 1) / 2;
  const std::size_t flops =
      2 * (chunks_run.load() * simd::kChunk + cells * tail);
  count_syrk(k, n, flops, cells * chunks - chunks_run.load());
  record_kernel_throughput("syrk", flops, sw.seconds(), parallel ? nt : 1);
  return c;
}

}  // namespace repro::linalg
