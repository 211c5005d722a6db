// Streamed out-of-core representative-path selection.
//
// Algorithm 1 prices a selection by its worst-predicted path (eps_r =
// max_i kappa * sigma_i / Tcons), and greedy pivoting adds exactly that path
// at each step: QR with column pivoting on A^T, stopped at the first prefix
// that meets the tolerance, IS the greedy selection, and it needs no Gram
// matrix.  This kernel runs it over a PathPanelSource without ever holding
// the n x m pool:
//
//   * State: one residual variance d_i = ||a_i||^2 - sum_k (q_k . a_i)^2 per
//     path (n doubles), with the count of basis rows folded into it (n
//     uint32), and an orthonormal basis Q of the picked rows (two-pass
//     modified Gram-Schmidt), plus a cache of block_rows candidates with
//     their rows materialized.
//   * Residuals only shrink as rows are added, so a d_i that has not folded
//     in every basis row is an upper bound; folding the missing rows later,
//     in basis order, gives the bits an up-to-date fold would have.
//   * Streamed pass: the pool is streamed in block_rows blocks (parallel
//     over blocks), each sourcing only the paths it refreshes into the
//     leading rows of a worker's panel.  The first pass sets every d_i =
//     ||a_i||^2; a later one refreshes only the paths whose stale bound
//     reaches tau, the residual of the cached candidate that stalled the
//     lazy greedy.  After a pass every d_i at or above tau is exact.
//   * Cache refill: the block_rows paths of largest d_i, stale bounds
//     included; rows that stay keep their slot, entering rows are sourced
//     in parallel and folded up to the basis.
//   * Lazy greedy between passes: exact greedy runs on the cached rows for
//     as long as the best cached (d_i, id) beats, in the greedy order, the
//     best bound outside the cache (Minoux's lazy greedy).
//   * Stop: at the first prefix of at least selection.min_r rows whose
//     maximum residual meets the tolerance.  That maximum is exact, so it is
//     the reported eps_r; there is no verify or repair pass.
//
// The representatives equal the monolithic kGreedySweep set on pools both
// can run (barring residual ties at the rounding level, which the two
// routes may break differently), and are bit-identical across thread
// counts and block_rows.
// Resident memory is O(n + workers * block_rows * m), all of it leased
// against a PanelBudget.  See DESIGN.md §14.
#pragma once

#include <cstdint>
#include <vector>

#include "core/panel_source.h"
#include "core/path_selection.h"

namespace repro::core {

struct ShardedSelectionOptions {
  std::uint64_t seed = 0x5eed10;  // unused: the selection is deterministic
  std::size_t block_rows = 8192;  // streamed block size and candidate cache
  // Upper bound, in bytes, on leased memory: the fixed state (residuals,
  // fold counts, flags, candidate cache) plus one block panel per worker,
  // the workers limited to what fits.  0 = one panel per thread.  A cap
  // below the fixed state plus one panel still runs, with one worker.
  std::size_t memory_cap_bytes = 0;
  PathSelectionOptions selection;  // epsilon / kappa / min_r; strategy unused
};

struct ShardedSelectionResult {
  std::vector<int> representatives;  // global path ids, ascending
  double eps_r = 0.0;                // exact maximum over the FULL pool
  bool tolerance_met = false;        // eps_r <= selection.epsilon at exit
  std::size_t passes = 0;            // streamed passes, full or partial
  std::size_t union_paths = 0;       // distinct candidate rows materialized
  std::size_t rows_sourced = 0;      // rows fill_rows produced, all calls
  std::size_t repair_promotions = 0;  // always 0: the kernel is exact
  std::size_t peak_panel_bytes = 0;  // high-water leased footprint
};

// Greedy selection over every path of `source` at the tolerance in
// options.selection.  Throws std::invalid_argument on an empty or all-zero
// pool or a non-positive t_cons.
ShardedSelectionResult select_paths_sharded(
    const PathPanelSource& source, double t_cons,
    const ShardedSelectionOptions& options = {});

}  // namespace repro::core
