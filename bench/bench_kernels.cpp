// Kernel microbenchmarks (google-benchmark): the numerical workhorses behind
// the selection algorithms — GEMM/Gram, blocked and pivoted QR,
// symmetric eigen and Cholesky-based error evaluation — plus the
// execution-layer comparisons (pooled vs spawn-per-call GEMM, pooled
// Monte-Carlo evaluation across thread counts).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "bench_common.h"
#include "circuit/generator.h"
#include "circuit/placement.h"
#include "core/error_model.h"
#include "core/monte_carlo.h"
#include "core/path_selection.h"
#include "core/subset_select.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/gemm.h"
#include "linalg/qr.h"
#include "linalg/qr_colpivot.h"
#include "linalg/simd/dispatch.h"
#include "linalg/trsm.h"
#include "timing/segments.h"
#include "util/cpu.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "variation/variation_model.h"

namespace {

using namespace repro;

linalg::Matrix random_matrix(std::size_t r, std::size_t c,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  linalg::Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.normal();
  }
  return m;
}

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix a = random_matrix(n, n, 1);
  const linalg::Matrix b = random_matrix(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::multiply(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// Reference point for the execution-layer change: the pre-pool GEMM spawned
// a fresh std::thread vector on every call.  Same row partitioning, same
// inner loops — the delta against BM_Gemm is pure spawn/join overhead.
linalg::Matrix gemm_spawn_per_call(const linalg::Matrix& a,
                                   const linalg::Matrix& b,
                                   std::size_t threads) {
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  linalg::Matrix c(m, n);
  auto rows = [&](std::size_t rb, std::size_t re) {
    for (std::size_t i = rb; i < re; ++i) {
      double* ci = &c(i, 0);
      for (std::size_t p = 0; p < k; ++p) {
        const double aip = a(i, p);
        if (aip == 0.0) continue;
        const double* bp = b.row(p).data();
        for (std::size_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
      }
    }
  };
  const std::size_t nt = std::min(threads, m);
  if (nt <= 1) {
    rows(0, m);
    return c;
  }
  std::vector<std::thread> workers;
  workers.reserve(nt);
  const std::size_t chunk = (m + nt - 1) / nt;
  for (std::size_t t = 0; t < nt; ++t) {
    const std::size_t rb = t * chunk;
    const std::size_t re = std::min(m, rb + chunk);
    if (rb >= re) break;
    workers.emplace_back([&rows, rb, re] { rows(rb, re); });
  }
  for (auto& w : workers) w.join();
  return c;
}

void BM_GemmSpawnPerCall(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix a = random_matrix(n, n, 1);
  const linalg::Matrix b = random_matrix(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gemm_spawn_per_call(a, b, util::thread_count()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmSpawnPerCall)->Arg(64)->Arg(128)->Arg(256);

void BM_Gram(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix a = random_matrix(n, 2 * n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::gram(a));
  }
}
BENCHMARK(BM_Gram)->Arg(128)->Arg(256);

// The Gram on the shape of s38417's Table 1 A = G Sigma: 2000 paths x 3597
// parameters with about 20 % of each row's 8-double chunks nonzero, the
// input whose zero chunks gram skips.  BM_Gram above is dense.
void BM_GramChunkSparse(benchmark::State& state) {
  const std::size_t n = 2000, k = 3597;
  util::Rng rng(4);
  linalg::Matrix a(n, k);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c * 8 < k; ++c) {
      if (rng.uniform() >= 0.2) continue;
      for (std::size_t p = 8 * c; p < std::min(k, 8 * c + 8); ++p) {
        a(i, p) = rng.normal();
      }
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::gram(a));
  }
}
BENCHMARK(BM_GramChunkSparse)->Unit(benchmark::kMillisecond);

void BM_QrColPivot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  // 2n candidates of length n (candidate-major), the wide shape of U_r^T.
  const linalg::Matrix a = random_matrix(2 * n, n, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::qr_colpivot(a));
  }
}
BENCHMARK(BM_QrColPivot)->Arg(64)->Arg(128)->Arg(256);

// Blocked Householder QR plus thin-Q formation on a tall 4n x n block, the
// shape of the randomized eigensolver's range-finder sketches.
void BM_QrThinQ(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix a = random_matrix(4 * n, n, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::qr_thin_q(linalg::qr_factor(a)));
  }
}
BENCHMARK(BM_QrThinQ)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_EigenSym(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix a = linalg::gram(random_matrix(n, n, 7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::eigen_sym(a));
  }
}
BENCHMARK(BM_EigenSym)->Arg(64)->Arg(128)->Arg(256);

void BM_SelectionErrorEvaluation(benchmark::State& state) {
  // The Algorithm-1 inner loop: one candidate-r error evaluation from the
  // precomputed Gram matrix.
  const auto n = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix a = random_matrix(n, n / 2, 8);
  const linalg::Matrix w = linalg::gram(a);
  std::vector<int> rep;
  for (std::size_t i = 0; i < n / 8; ++i) rep.push_back(static_cast<int>(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::selection_errors_from_gram(w, rep, 1000.0, 3.0));
  }
}
BENCHMARK(BM_SelectionErrorEvaluation)->Arg(128)->Arg(512);

void BM_SubsetSelect(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const linalg::Matrix a = random_matrix(n, n / 2, 9);
  const core::SubsetSelector selector =
      core::make_subset_selector(a, linalg::gram(a));
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.select(n / 8));
  }
}
BENCHMARK(BM_SubsetSelect)->Arg(128)->Arg(512);

// Pooled Monte-Carlo predictor evaluation at bench_baseline_rcp-scale
// inputs; Arg = thread count, so the recorded trajectory shows the parallel
// speedup directly (thread count 1 is the serial reference).  The sampled
// values are bit-identical across all Args by construction.
struct McFixture {
  std::unique_ptr<variation::VariationModel> model;
  core::LinearPredictor predictor;

  McFixture() {
    circuit::Netlist nl = circuit::generate_benchmark("s1423");
    circuit::place(nl);
    const circuit::GateLibrary lib;
    const timing::TimingGraph tg(nl, lib);
    const std::vector<timing::Path> paths =
        timing::enumerate_worst_paths(tg, {.max_paths = 400});
    const timing::SegmentDecomposition dec = timing::extract_segments(nl, paths);
    const variation::SpatialModel spatial(3);
    model = std::make_unique<variation::VariationModel>(
        tg, spatial, paths, dec, variation::VariationOptions{});
    const core::SubsetSelector sel =
        core::make_subset_selector(model->a(), linalg::gram(model->a()));
    predictor = core::make_path_predictor(
        model->a(), model->mu_paths(),
        sel.select(std::max<std::size_t>(1, sel.rank() / 4)));
  }
};

void BM_MonteCarloEvaluate(benchmark::State& state) {
  static const McFixture fixture;  // built once, shared across Args
  const std::size_t saved_threads = util::thread_count();
  util::set_threads(static_cast<std::size_t>(state.range(0)));
  core::McOptions opt;
  opt.samples = 2000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::evaluate_predictor(*fixture.model, fixture.predictor, opt));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(opt.samples));
  util::set_threads(saved_threads);
}
BENCHMARK(BM_MonteCarloEvaluate)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Dispatch-tier throughput sweep: GFLOP/s-vs-peak for GEMM, SYRK, and
// multi-RHS trsm at n = 512 on every tier the host can run.  These are the
// CI perf-gate metrics: the record gates that the gflops/peak_fraction
// numbers exist and that the dispatched tier clears its speedup-vs-scalar
// floor (clock-independent, so it holds on any throttled runner).  A forced
// REPRO_KERNEL restricts the sweep to exactly that tier, so no scalar leg is
// timed and the speedups degenerate to 1.0; the record says so via
// scalar_timed = 0 (and forced_tier), and the floors are not emitted.
// ---------------------------------------------------------------------------

struct KernelTimes {
  double gemm_s = 0.0;
  double syrk_s = 0.0;
  double trsm_s = 0.0;
};

// Best-of-reps wall time per kernel under the currently active tier.
KernelTimes time_kernels(std::size_t n, const linalg::Matrix& a,
                         const linalg::Matrix& b, const linalg::Matrix& l,
                         const linalg::Matrix& rhs) {
  KernelTimes best;
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    util::Stopwatch sw;
    benchmark::DoNotOptimize(linalg::multiply(a, b));
    const double tg = sw.seconds();
    sw.reset();
    benchmark::DoNotOptimize(linalg::gram(a));
    const double ts = sw.seconds();
    sw.reset();
    linalg::Matrix x = rhs;
    linalg::trsm_lower_inplace(l, x);
    benchmark::DoNotOptimize(x.row(0).data());
    const double tt = sw.seconds();
    if (rep == 0 || tg < best.gemm_s) best.gemm_s = tg;
    if (rep == 0 || ts < best.syrk_s) best.syrk_s = ts;
    if (rep == 0 || tt < best.trsm_s) best.trsm_s = tt;
  }
  (void)n;
  return best;
}

void run_tier_sweep(repro::bench::Harness& h) {
  namespace simd = linalg::simd;
  const std::size_t n = 512;
  const linalg::Matrix a = random_matrix(n, n, 21);
  const linalg::Matrix b = random_matrix(n, n, 22);
  linalg::Matrix w = linalg::gram(a);
  for (std::size_t i = 0; i < n; ++i) w(i, i) += static_cast<double>(n);
  const linalg::CholFactors f = linalg::chol_factor(std::move(w));
  const linalg::Matrix rhs = random_matrix(n, n, 23);

  const double gemm_flops = 2.0 * static_cast<double>(n * n * n);
  const double syrk_flops = static_cast<double>(n * n * (n + 1));
  const double trsm_flops = static_cast<double>(n * n * n);
  const std::size_t threads = util::thread_count();

  // The dispatched tier is what a plain run uses; a REPRO_KERNEL override
  // restricts the sweep to exactly that tier (the reference leg must not
  // also time the tiers it was told not to use).
  const std::string forced = simd::env_forced_tier();
  const simd::Tier dispatched =
      forced.empty() ? simd::best_available_tier() : simd::active_tier();
  std::vector<simd::Tier> tiers;
  if (forced.empty()) {
    tiers = simd::available_tiers();
  } else {
    tiers = {dispatched};
  }

  std::string tier_list;
  double scalar_gemm_s = 0.0, scalar_syrk_s = 0.0, scalar_trsm_s = 0.0;
  KernelTimes dispatched_times;
  for (simd::Tier t : tiers) {
    const char* name = simd::tier_name(t);
    if (!simd::set_tier(name)) continue;
    const KernelTimes kt = time_kernels(n, a, b, f.l, rhs);
    if (!tier_list.empty()) tier_list += ',';
    tier_list += name;
    const double peak = simd::theoretical_peak_gflops(t, threads);
    h.metric(std::string("gemm_gflops_") + name,
             gemm_flops / kt.gemm_s * 1e-9);
    h.metric(std::string("gemm_peak_fraction_") + name,
             gemm_flops / kt.gemm_s * 1e-9 / peak);
    h.metric(std::string("syrk_gflops_") + name,
             syrk_flops / kt.syrk_s * 1e-9);
    h.metric(std::string("syrk_peak_fraction_") + name,
             syrk_flops / kt.syrk_s * 1e-9 / peak);
    h.metric(std::string("trsm_gflops_") + name,
             trsm_flops / kt.trsm_s * 1e-9);
    h.metric(std::string("trsm_peak_fraction_") + name,
             trsm_flops / kt.trsm_s * 1e-9 / peak);
    if (t == simd::Tier::kScalar) {
      scalar_gemm_s = kt.gemm_s;
      scalar_syrk_s = kt.syrk_s;
      scalar_trsm_s = kt.trsm_s;
    }
    if (t == dispatched) dispatched_times = kt;
  }
  simd::set_tier(simd::tier_name(dispatched));

  const double dispatched_peak =
      simd::theoretical_peak_gflops(dispatched, threads);
  // Whether a scalar leg was actually timed decides if the speedup ratios
  // mean anything: a forced non-scalar tier never times scalar and reports
  // 1.0, which must not trip the speedup floors.
  const bool have_scalar = scalar_gemm_s > 0.0;
  h.metric("kernel_n", n);
  h.metric("dispatched_tier", simd::tier_name(dispatched));
  h.metric("forced_tier", forced.empty() ? "none" : forced);
  h.metric("scalar_timed", have_scalar);
  h.metric("tiers_timed", tier_list);
  h.metric("nominal_cpu_ghz", util::nominal_cpu_ghz());
  h.metric("gemm_gflops", gemm_flops / dispatched_times.gemm_s * 1e-9);
  h.metric("gemm_peak_fraction",
           gemm_flops / dispatched_times.gemm_s * 1e-9 / dispatched_peak);
  h.metric("syrk_gflops", syrk_flops / dispatched_times.syrk_s * 1e-9);
  h.metric("syrk_peak_fraction",
           syrk_flops / dispatched_times.syrk_s * 1e-9 / dispatched_peak);
  h.metric("trsm_gflops", trsm_flops / dispatched_times.trsm_s * 1e-9);
  h.metric("trsm_peak_fraction",
           trsm_flops / dispatched_times.trsm_s * 1e-9 / dispatched_peak);
  // Speedup ratios cancel the clock estimate entirely; 1.0 when the sweep
  // had no scalar leg to compare against (forced non-scalar tier).
  h.metric("gemm_speedup_vs_scalar",
           have_scalar ? scalar_gemm_s / dispatched_times.gemm_s : 1.0);
  h.metric("syrk_speedup_vs_scalar",
           have_scalar ? scalar_syrk_s / dispatched_times.syrk_s : 1.0);
  h.metric("trsm_speedup_vs_scalar",
           have_scalar ? scalar_trsm_s / dispatched_times.trsm_s : 1.0);

  for (const char* key :
       {"dispatched_tier", "forced_tier", "scalar_timed", "kernel_n",
        "gemm_gflops", "gemm_peak_fraction", "syrk_gflops",
        "syrk_peak_fraction", "trsm_gflops", "trsm_peak_fraction",
        "gemm_speedup_vs_scalar", "syrk_speedup_vs_scalar",
        "trsm_speedup_vs_scalar"}) {
    h.gate(key, "present");
  }
  // Perf-regression floors: dispatched-tier-over-scalar speedups.  Ratios
  // cancel the runner's clock, so the floors hold on any throttled machine.
  // They bind only when a scalar leg was timed and the dispatched tier is a
  // SIMD tier; otherwise the ratios are 1.0 by construction.
  if (have_scalar && dispatched != simd::Tier::kScalar) {
    h.gate("gemm_speedup_vs_scalar", ">=", 1.5);
    h.gate("syrk_speedup_vs_scalar", ">=", 1.5);
    h.gate("trsm_speedup_vs_scalar", ">=", 1.05);
  }
}

// QR speed relative to the GEMM it is built on: best-of-3 time of
// qr_thin_q(qr_factor(X)) over the best-of-3 time of a dispatched GEMM with
// the same flop count (factor and thin Q each take 2 m n^2 - 2 n^3 / 3
// flops).  X is 2000 x 488, the range-finder sketch of the s38417 Table 1
// pool.  Near 1 means the factorization runs at GEMM speed; the
// column-at-a-time QR it replaced sat near 100.
void run_qr_ratio(repro::bench::Harness& h) {
  const std::size_t m = 2000, n = 488;
  const linalg::Matrix x = random_matrix(m, n, 24);
  const double md = static_cast<double>(m), nd = static_cast<double>(n);
  const double qr_flops = 4.0 * md * nd * nd - 4.0 * nd * nd * nd / 3.0;
  const auto p =
      static_cast<std::size_t>(std::lround(qr_flops / (2.0 * md * nd)));
  const linalg::Matrix b = random_matrix(n, p, 25);
  double qr_s = 0.0, gemm_s = 0.0;
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    util::Stopwatch sw;
    benchmark::DoNotOptimize(linalg::qr_thin_q(linalg::qr_factor(x)));
    const double tq = sw.seconds();
    sw.reset();
    benchmark::DoNotOptimize(linalg::multiply(x, b));
    const double tg = sw.seconds();
    if (rep == 0 || tq < qr_s) qr_s = tq;
    if (rep == 0 || tg < gemm_s) gemm_s = tg;
  }
  h.metric("qr_m", m);
  h.metric("qr_n", n);
  h.metric("qr_thin_q_s", qr_s);
  h.metric("qr_equal_flops_gemm_s", gemm_s);
  h.metric("qr_over_gemm", qr_s / gemm_s);
  h.gate("qr_over_gemm", "present");
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): google-benchmark consumes its
// --benchmark_* flags first, then the harness takes what is left (so an
// explicit JSON output path still works) and wraps the run in the same
// schema-versioned record as every other bench.
// An uncaught exception aborting through the libstdc++ terminate
// message is an acceptable failure mode for a bench/demo binary.
// NOLINTNEXTLINE(bugprone-exception-escape)
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  repro::bench::Harness h("kernels", argc, argv);
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  h.metric("benchmarks_run", ran);
  {
    const util::telemetry::Span span("bench.tier_sweep");
    run_tier_sweep(h);
  }
  {
    const util::telemetry::Span span("bench.qr_ratio");
    run_qr_ratio(h);
  }
  h.gate("benchmarks_run", ">", 0);
  return h.finish();
}
