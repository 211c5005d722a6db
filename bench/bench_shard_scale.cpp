// Streamed out-of-core selection at production pool sizes.
//
// The monolithic Algorithm 1 materializes the n x m sensitivity matrix and
// an n x n Gram; at n = 1M that is hundreds of GB and out of reach.  This
// bench drives core::select_paths_sharded over a generator-backed
// FunctionPanelSource — rows are synthesized on demand from
// util::Rng::stream(seed, path_id), so the full matrix never exists — and
// reports wall time, streamed passes, the rows sourced and the peak leased
// footprint against a memory budget.  A side run at a monolithically
// feasible size checks that the streamed kernel returns exactly the
// monolithic greedy sweep's set and eps_r, plus bit-identity across thread
// counts.
// validate_bench_json.py gates the memory ceiling, exactness, invariance
// and the partial passes (fewer rows sourced than a full sweep per pass).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/panel_source.h"
#include "core/path_selection.h"
#include "core/sharded_selection.h"
#include "linalg/matrix.h"
#include "linalg/simd/dispatch.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace {

using repro::linalg::Matrix;

// Shared dominant directions of the synthetic pool (the paper's Figure 2(a)
// spectral shape): every path mixes k base directions plus idiosyncratic
// noise.  Bases come from their own Rng streams so they are independent of
// the per-path streams.
Matrix base_directions(std::size_t k, std::size_t m, std::uint64_t seed) {
  Matrix base(k, m);
  for (std::size_t d = 0; d < k; ++d) {
    repro::util::Rng rng = repro::util::Rng::stream(seed, (1u << 24) + d);
    for (std::size_t j = 0; j < m; ++j) base(d, j) = rng.normal();
  }
  return base;
}

// Deterministic per-path row: a pure function of (seed, id), independent of
// which block materializes it — the property that makes the out-of-core
// kernel bit-reproducible.  Writes every cell of `row`; allocates nothing.
void synth_row(const Matrix& base, double noise, std::uint64_t seed, int id,
               std::span<double> row) {
  repro::util::Rng rng =
      repro::util::Rng::stream(seed, static_cast<std::uint64_t>(id));
  std::fill(row.begin(), row.end(), 0.0);
  for (std::size_t d = 0; d < base.rows(); ++d) {
    const double w = rng.uniform(0.2, 1.0);
    repro::linalg::axpy(w, base.row(d), row);
  }
  for (double& v : row) v += noise * rng.normal();
}

double span_total_ms(const char* name) {
  for (const auto& s : repro::util::telemetry::snapshot().spans) {
    if (s.name == name) return s.total_ms;
  }
  return 0.0;
}

}  // namespace

// An uncaught exception aborting through the libstdc++ terminate
// message is an acceptable failure mode for a bench/demo binary.
// NOLINTNEXTLINE(bugprone-exception-escape)
int main(int argc, char** argv) {
  using namespace repro;
  bench::Harness h("shard_scale", argc, argv);
  const int scale = util::repro_scale_mode();

  std::size_t n = 1'000'000, m = 64, k = 32, n_small = 3000;
  if (scale == 0) {
    n = 20'000;
    m = 32;
    k = 16;
    n_small = 1200;
  } else if (scale == 2) {
    n = 2'000'000;
    m = 96;
    k = 48;
    n_small = 4000;
  }
  const double noise = 0.05;
  const double t_cons = 2000.0;
  const double epsilon = 1e-3;  // tight enough for a nontrivial selection
  const std::uint64_t seed = 20260808;

  std::printf("=== Streamed out-of-core selection scale run ===\n");
  std::printf("pool: n = %zu paths x m = %zu parameters (%zu directions)\n",
              n, m, k);

  const Matrix base = base_directions(k, m, seed);
  const core::FunctionPanelSource source(
      n, m, [&](int id, std::span<double> row) {
        synth_row(base, noise, seed, id, row);
      });

  // Memory ceiling: the dense n x m sensitivity matrix is what the
  // monolithic route would materialize before even forming its Gram; the
  // streamed kernel must stay under a quarter of it (with a 64 MiB floor so
  // the FAST smoke, whose dense baseline is tiny, gates against a fixed
  // absolute ceiling instead).  The same figure is handed to the kernel as
  // its memory cap, so the gate holds on any worker count.
  const std::size_t dense_bytes = n * m * sizeof(double);
  const std::size_t mem_budget_bytes =
      std::max<std::size_t>(64u << 20, dense_bytes / 4);

  core::ShardedSelectionOptions opt;
  opt.selection.epsilon = epsilon;
  opt.selection.strategy = core::SelectionStrategy::kGreedySweep;
  opt.memory_cap_bytes = mem_budget_bytes;

  util::Stopwatch sw;
  const core::ShardedSelectionResult big = [&] {
    const util::telemetry::Span span("bench.shard_scale");
    return core::select_paths_sharded(source, t_cons, opt);
  }();
  const double wall_s = sw.seconds();
  const double t_pass_ms = span_total_ms("core.shard.pass");

  std::printf(
      "wall: %.1f s | passes: %zu | rows sourced: %zu (%.2f pool sweeps) | "
      "candidate rows: %zu\n",
      wall_s, big.passes, big.rows_sourced,
      static_cast<double>(big.rows_sourced) / static_cast<double>(n),
      big.union_paths);
  std::printf("selected r = %zu, eps_r = %.3g (tolerance %s)\n",
              big.representatives.size(), big.eps_r,
              big.tolerance_met ? "met" : "NOT MET");
  std::printf("peak panel bytes: %.1f MiB (budget %.1f MiB, dense %.1f MiB)\n",
              big.peak_panel_bytes / 1048576.0, mem_budget_bytes / 1048576.0,
              dense_bytes / 1048576.0);

  // Exactness probe at a monolithically feasible size: same generator, pool
  // small enough for the dense route.  The streamed kernel, with a cache
  // small enough to need several passes, must return the monolithic greedy
  // sweep's set and eps_r.
  Matrix a_small(n_small, m);
  for (std::size_t i = 0; i < n_small; ++i) {
    synth_row(base, noise, seed, static_cast<int>(i), a_small.row(i));
  }
  const core::PathSelectionResult mono =
      core::select_representative_paths(a_small, t_cons, opt.selection);
  std::vector<int> mono_set = mono.representatives;
  std::sort(mono_set.begin(), mono_set.end());

  const core::MatrixPanelSource small_source(a_small);
  core::ShardedSelectionOptions small_opt = opt;
  small_opt.block_rows = 256;
  const core::ShardedSelectionResult small =
      core::select_paths_sharded(small_source, t_cons, small_opt);
  const bool parity_exact =
      small.representatives == mono_set &&
      std::abs(small.eps_r - mono.eps_r) <= 1e-9 * mono.eps_r;
  std::printf(
      "parity @ n = %zu: mono r = %zu eps = %.6g | streamed r = %zu "
      "eps = %.6g in %zu passes -> %s\n",
      n_small, mono.representatives.size(), mono.eps_r,
      small.representatives.size(), small.eps_r, small.passes,
      parity_exact ? "exact" : "MISMATCH");

  // Thread-count invariance of the streamed result (1 vs 4 threads) — the
  // out-of-core kernel inherits the repo-wide determinism guarantee.
  const std::size_t saved_threads = util::thread_count();
  util::set_threads(1);
  const core::ShardedSelectionResult inv1 =
      core::select_paths_sharded(small_source, t_cons, small_opt);
  util::set_threads(4);
  const core::ShardedSelectionResult inv4 =
      core::select_paths_sharded(small_source, t_cons, small_opt);
  util::set_threads(saved_threads);
  const bool thread_invariant = inv1.representatives == inv4.representatives &&
                                inv1.eps_r == inv4.eps_r &&
                                inv1.passes == inv4.passes;
  std::printf("thread invariance (1 vs 4 threads): %s\n",
              thread_invariant ? "bit-identical" : "MISMATCH");

  h.metric("n_paths", n);
  h.metric("m_params", m);
  h.metric("wall_s", wall_s);
  h.metric("passes", big.passes);
  h.metric("union_paths", big.union_paths);
  h.metric("rows_sourced", big.rows_sourced);
  h.metric("selected_r", big.representatives.size());
  h.metric("eps_r", big.eps_r);
  h.metric("tolerance_met", big.tolerance_met);
  h.metric("repair_promotions", big.repair_promotions);
  h.metric("peak_panel_bytes", big.peak_panel_bytes);
  h.metric("mem_budget_bytes", mem_budget_bytes);
  h.metric("dense_bytes", dense_bytes);
  h.metric("t_pass_ms", t_pass_ms);
  h.metric("parity_n", n_small);
  h.metric("parity_exact", parity_exact);
  h.metric("thread_invariant", thread_invariant);
  h.metric("kernel_tier",
           linalg::simd::tier_name(linalg::simd::active_tier()));

  // The streamed kernel must meet the global tolerance, stay bit-identical
  // across thread counts, and return exactly the monolithic greedy sweep's
  // set and eps_r on the pool small enough to run both.
  h.gate("tolerance_met", "==", true);
  h.gate("parity_exact", "==", true);
  h.gate("thread_invariant", "==", true);
  // Passes after the first refresh only the paths whose stale bound can
  // still win, so the kernel sources fewer rows than a full sweep per pass.
  h.gate("rows_sourced", "<", big.passes * n);
  // The memory ceiling is the point of the bench: peak leased panel bytes
  // stay under the budget at every scale, and on the million-path pools
  // under a quarter of the dense footprint.
  h.gate("peak_panel_bytes", "<=", mem_budget_bytes);
  if (scale != 0) h.gate("peak_panel_bytes", "<=", dense_bytes / 4);
  for (const char* key : {"n_paths", "passes", "eps_r", "repair_promotions",
                          "mem_budget_bytes", "dense_bytes"}) {
    h.gate(key, "present");
  }
  return h.finish();
}
