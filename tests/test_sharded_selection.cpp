#include "core/sharded_selection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/error_model.h"
#include "core/panel_source.h"
#include "core/path_selection.h"
#include "linalg/qr_colpivot.h"
#include "util/contracts.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace repro::core {
namespace {

constexpr double kTcons = 2000.0;

linalg::Matrix random_matrix(std::size_t r, std::size_t c,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  linalg::Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.normal();
  }
  return m;
}

// Path-like pool: rows share a few dominant directions plus idiosyncratic
// noise (steep singular-value decay like the paper's Figure 2(a)).
linalg::Matrix correlated_rows(std::size_t n, std::size_t m, std::size_t k,
                               double noise, std::uint64_t seed) {
  util::Rng rng(seed);
  const linalg::Matrix base = random_matrix(k, m, seed + 1);
  linalg::Matrix a(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < k; ++d) {
      const double w = rng.uniform(0.2, 1.0);
      linalg::axpy(w, base.row(d), a.row(i));
    }
    for (std::size_t j = 0; j < m; ++j) a(i, j) += noise * rng.normal();
  }
  return a;
}

ShardedSelectionOptions greedy_options(double epsilon) {
  ShardedSelectionOptions opt;
  opt.selection.epsilon = epsilon;
  opt.selection.strategy = SelectionStrategy::kGreedySweep;
  return opt;
}

std::vector<int> ascending(std::vector<int> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(PanelSource, MatrixSourceFillsRequestedRows) {
  const linalg::Matrix a = random_matrix(10, 4, 7);
  const MatrixPanelSource source(a);
  EXPECT_EQ(source.paths(), 10u);
  EXPECT_EQ(source.params(), 4u);

  const std::vector<int> ids = {7, 0, 3};
  linalg::Matrix panel(ids.size(), 4);
  source.fill_rows(ids, panel);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(panel(k, j), a(static_cast<std::size_t>(ids[k]), j));
    }
  }

  const std::vector<int> bad = {10};
  linalg::Matrix one(1, 4);
  EXPECT_THROW(source.fill_rows(bad, one), std::out_of_range);
}

TEST(PanelSource, FunctionSourceGeneratesRowsOnDemand) {
  const linalg::Matrix a = random_matrix(12, 5, 11);
  const FunctionPanelSource source(12, 5, [&](int id, std::span<double> row) {
    const auto src = a.row(static_cast<std::size_t>(id));
    std::copy(src.begin(), src.end(), row.begin());
  });

  const std::vector<int> ids = {11, 2};
  linalg::Matrix panel(2, 5);
  source.fill_rows(ids, panel);
  EXPECT_EQ(panel(0, 0), a(11, 0));
  EXPECT_EQ(panel(1, 4), a(2, 4));

  linalg::Matrix wrong(2, 4);
  if (util::contracts_enabled()) {
    EXPECT_THROW(source.fill_rows(ids, wrong), util::ContractViolation);
  }
}

// fill_rows writes the leading ids.size() rows of a taller panel and leaves
// the rest alone, so one leased panel per worker serves any partial block.
TEST(PanelSource, ShortIdListFillsLeadingRowsOnly) {
  const linalg::Matrix a = random_matrix(10, 4, 9);
  const MatrixPanelSource matrix_source(a);
  const FunctionPanelSource function_source(
      10, 4, [&](int id, std::span<double> row) {
        const auto src = a.row(static_cast<std::size_t>(id));
        std::copy(src.begin(), src.end(), row.begin());
      });
  const std::vector<int> ids = {8, 1};
  for (const PathPanelSource* source :
       {static_cast<const PathPanelSource*>(&matrix_source),
        static_cast<const PathPanelSource*>(&function_source)}) {
    linalg::Matrix panel(5, 4, -7.0);
    source->fill_rows(ids, panel);
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(panel(0, j), a(8, j));
      EXPECT_EQ(panel(1, j), a(1, j));
      for (std::size_t k = 2; k < 5; ++k) EXPECT_EQ(panel(k, j), -7.0);
    }
    if (util::contracts_enabled()) {
      linalg::Matrix short_panel(1, 4);
      EXPECT_THROW(source->fill_rows(ids, short_panel),
                   util::ContractViolation);
    }
  }
}

TEST(PanelSource, BudgetTracksPeakAcrossLeases) {
  PanelBudget budget;
  {
    PanelLease a(&budget, 100);
    EXPECT_EQ(budget.current(), 100u);
    {
      PanelLease b(&budget, 50);
      EXPECT_EQ(budget.current(), 150u);
    }
    EXPECT_EQ(budget.current(), 100u);
    PanelLease moved = std::move(a);
    EXPECT_EQ(budget.current(), 100u);
  }
  EXPECT_EQ(budget.current(), 0u);
  EXPECT_EQ(budget.peak(), 150u);
}

// The streamed kernel is the monolithic greedy sweep, not an approximation
// of it: the same set and the same eps_r, on tall pools and on a wide one.
TEST(ShardedSelection, ExactParityWithMonolithicGreedySweep) {
  struct Pool {
    linalg::Matrix a;
    double epsilon;
  };
  std::vector<Pool> pools;
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    pools.push_back({correlated_rows(1200, 40, 10, 0.05, seed), 2e-3});
  }
  pools.push_back({correlated_rows(150, 200, 12, 0.05, 404), 4e-3});  // m > n

  for (const Pool& pool : pools) {
    SCOPED_TRACE(pool.a.shape_string());
    ShardedSelectionOptions opt = greedy_options(pool.epsilon);
    opt.block_rows = 256;  // several passes on every pool
    const PathSelectionResult mono =
        select_representative_paths(pool.a, kTcons, opt.selection);
    const ShardedSelectionResult streamed =
        select_paths_sharded(MatrixPanelSource(pool.a), kTcons, opt);

    EXPECT_GT(streamed.representatives.size(), 1u);
    EXPECT_EQ(streamed.representatives, ascending(mono.representatives));
    EXPECT_NEAR(streamed.eps_r, mono.eps_r, 1e-9 * mono.eps_r);
    EXPECT_TRUE(streamed.tolerance_met);
    EXPECT_EQ(streamed.repair_promotions, 0u);
  }
}

// The streamed kernel and qr_colpivot pivot with the same ResidualBasis
// arithmetic, so the streamed picks are exactly qr_colpivot's first r
// pivots on the same rows.
TEST(ShardedSelection, PicksAreTheLeadingQrColpivotPivots) {
  for (const linalg::Matrix& a : {correlated_rows(1200, 40, 10, 0.05, 101),
                                  correlated_rows(150, 200, 12, 0.05, 404)}) {
    SCOPED_TRACE(a.shape_string());
    ShardedSelectionOptions opt = greedy_options(4e-3);
    opt.block_rows = 64;  // several passes and refills
    const ShardedSelectionResult streamed =
        select_paths_sharded(MatrixPanelSource(a), kTcons, opt);
    const std::size_t r = streamed.representatives.size();
    ASSERT_GT(r, 1u);
    const linalg::QrcpResult f = linalg::qr_colpivot(a, r);
    EXPECT_EQ(streamed.representatives,
              ascending(std::vector<int>(
                  f.perm.begin(),
                  f.perm.begin() + static_cast<std::ptrdiff_t>(r))));
  }
}

// Lazy greedy is exact, so neither the worker count nor the cache size
// (block_rows) can change a single bit of the result.
TEST(ShardedSelection, BitIdenticalAcrossThreadsAndBlockRows) {
  const linalg::Matrix a = correlated_rows(3000, 24, 8, 0.05, 61);
  const MatrixPanelSource source(a);
  ShardedSelectionOptions opt = greedy_options(2e-3);

  const std::size_t saved = util::thread_count();
  util::set_threads(1);
  opt.block_rows = 8192;
  const ShardedSelectionResult ref = select_paths_sharded(source, kTcons, opt);
  EXPECT_EQ(ref.passes, 1u);  // the cache holds the whole pool
  for (const std::size_t threads : {1u, 4u}) {
    util::set_threads(threads);
    for (const std::size_t block : {64u, 512u, 8192u}) {
      opt.block_rows = block;
      const ShardedSelectionResult r = select_paths_sharded(source, kTcons, opt);
      EXPECT_EQ(r.representatives, ref.representatives)
          << threads << " threads, block_rows " << block;
      EXPECT_EQ(r.eps_r, ref.eps_r)  // bitwise, not approximate
          << threads << " threads, block_rows " << block;
    }
  }
  util::set_threads(saved);
}

TEST(ShardedSelection, EpsAgreesWithSelectionErrors) {
  const linalg::Matrix a = correlated_rows(900, 32, 8, 0.05, 51);
  ShardedSelectionOptions opt = greedy_options(2e-3);
  opt.block_rows = 128;
  const ShardedSelectionResult r =
      select_paths_sharded(MatrixPanelSource(a), kTcons, opt);

  EXPECT_GT(r.passes, 1u);
  EXPECT_TRUE(r.tolerance_met);
  EXPECT_LE(r.eps_r, opt.selection.epsilon);
  EXPECT_GE(r.union_paths, r.representatives.size());
  EXPECT_TRUE(std::is_sorted(r.representatives.begin(),
                             r.representatives.end()));
  EXPECT_EQ(std::adjacent_find(r.representatives.begin(),
                               r.representatives.end()),
            r.representatives.end());

  const SelectionErrors check =
      selection_errors(a, r.representatives, kTcons, opt.selection.kappa);
  EXPECT_NEAR(r.eps_r, check.eps_r, 1e-9 * check.eps_r);
}

TEST(ShardedSelection, HonorsMinR) {
  const linalg::Matrix a = correlated_rows(600, 24, 6, 0.05, 71);
  ShardedSelectionOptions opt = greedy_options(0.05);
  const ShardedSelectionResult loose =
      select_paths_sharded(MatrixPanelSource(a), kTcons, opt);

  opt.selection.min_r = loose.representatives.size() + 5;
  const ShardedSelectionResult forced =
      select_paths_sharded(MatrixPanelSource(a), kTcons, opt);
  EXPECT_EQ(forced.representatives.size(), opt.selection.min_r);
  EXPECT_LE(forced.eps_r, loose.eps_r);
  const PathSelectionResult mono =
      select_representative_paths(a, kTcons, opt.selection);
  EXPECT_EQ(forced.representatives, ascending(mono.representatives));
}

// Every allocation that grows with n or with the blocks in flight is leased,
// and memory_cap_bytes bounds the blocks in flight without changing the
// answer.
TEST(ShardedSelection, LeasesCoverResidualsAndStayUnderCap) {
  const std::size_t n = 20000;
  const std::size_t m = 16;
  const std::size_t block = 512;
  const linalg::Matrix a = correlated_rows(n, m, 6, 0.05, 81);
  const MatrixPanelSource source(a);
  ShardedSelectionOptions opt = greedy_options(2e-3);
  opt.block_rows = block;

  const std::size_t saved = util::thread_count();
  util::set_threads(4);
  const ShardedSelectionResult loose = select_paths_sharded(source, kTcons, opt);
  // The residual state (d_i, flags and fold counts) plus four block
  // panels: after the candidate cache (about one panel) only two blocks fit
  // in flight, not four.
  opt.memory_cap_bytes =
      n * (sizeof(double) + 1 + 4) + 4 * (panel_bytes(block, m) + block * 4);
  const ShardedSelectionResult capped =
      select_paths_sharded(source, kTcons, opt);
  util::set_threads(saved);

  EXPECT_EQ(capped.representatives, loose.representatives);
  EXPECT_EQ(capped.eps_r, loose.eps_r);  // bitwise
  EXPECT_GE(capped.peak_panel_bytes, n * sizeof(double));
  EXPECT_LE(capped.peak_panel_bytes, opt.memory_cap_bytes);
  EXPECT_GE(loose.peak_panel_bytes, capped.peak_panel_bytes);
}

// Exact ties everywhere: rows repeat bit for bit and every distinct row has
// the same norm, so residuals tie in the cache, outside it and across the
// two.  The greedy order breaks each tie to the lowest id, so the kernel
// must stop, and neither the cache size nor the worker count may change the
// set, eps_r or (for a given cache size) the number of passes.
TEST(ShardedSelection, ExactTiesNeitherHangNorSplit) {
  const std::size_t m = 8;
  const std::size_t distinct = 12;
  const std::size_t n = 600;
  // Row t of the base: +-1 in two coordinates, so ||row||^2 == 2 exactly.
  linalg::Matrix base(distinct, m);
  for (std::size_t t = 0; t < distinct; ++t) {
    base(t, t % m) = 1.0;
    base(t, (t * 3 + 1) % m) = t % 2 == 0 ? 1.0 : -1.0;
  }
  linalg::Matrix a(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = base.row((i * 5) % distinct);
    std::copy(src.begin(), src.end(), a.row(i).begin());
  }
  const MatrixPanelSource source(a);
  ShardedSelectionOptions opt = greedy_options(1e-9);  // run to the floor

  const std::size_t saved = util::thread_count();
  util::set_threads(1);
  opt.block_rows = n;
  const ShardedSelectionResult ref = select_paths_sharded(source, kTcons, opt);
  EXPECT_GT(ref.representatives.size(), 1u);
  EXPECT_LE(ref.representatives.size(), m);
  for (const std::size_t block : {std::size_t{1}, std::size_t{7},
                                  std::size_t{256}, n}) {
    std::size_t passes = 0;
    for (const std::size_t threads : {1u, 4u}) {
      util::set_threads(threads);
      opt.block_rows = block;
      const ShardedSelectionResult r =
          select_paths_sharded(source, kTcons, opt);
      EXPECT_EQ(r.representatives, ref.representatives)
          << threads << " threads, block_rows " << block;
      EXPECT_EQ(r.eps_r, ref.eps_r)  // bitwise
          << threads << " threads, block_rows " << block;
      if (passes == 0) passes = r.passes;
      EXPECT_EQ(r.passes, passes)
          << threads << " threads, block_rows " << block;
    }
  }
  util::set_threads(saved);
}

// Counts every row a source materializes, from any thread.
class CountingPanelSource final : public PathPanelSource {
 public:
  explicit CountingPanelSource(const linalg::Matrix& a) : inner_(a) {}
  std::size_t paths() const override { return inner_.paths(); }
  std::size_t params() const override { return inner_.params(); }
  void fill_rows(std::span<const int> ids,
                 linalg::Matrix& out) const override {
    rows_ += ids.size();
    inner_.fill_rows(ids, out);
  }
  std::size_t rows() const { return rows_; }

 private:
  MatrixPanelSource inner_;
  mutable std::atomic<std::size_t> rows_{0};
};

// rows_sourced is every row fill_rows produced, by passes and refills
// together, and partial passes keep it below a full pool per pass.
TEST(ShardedSelection, RowsSourcedCountsEveryFilledRow) {
  const linalg::Matrix a = correlated_rows(4000, 24, 8, 0.05, 91);
  const CountingPanelSource source(a);
  ShardedSelectionOptions opt = greedy_options(2e-3);
  opt.block_rows = 128;
  const ShardedSelectionResult r = select_paths_sharded(source, kTcons, opt);

  EXPECT_GT(r.passes, 2u);
  EXPECT_EQ(r.rows_sourced, source.rows());
  EXPECT_LT(r.rows_sourced, r.passes * a.rows());
}

TEST(ShardedSelection, RejectsDegenerateInputs) {
  const linalg::Matrix a = random_matrix(4, 3, 5);
  const MatrixPanelSource source(a);
  EXPECT_THROW(select_paths_sharded(source, 0.0, {}), std::invalid_argument);
  EXPECT_THROW(select_paths_sharded(source, -1.0, {}), std::invalid_argument);
  const linalg::Matrix zeros(6, 3);
  EXPECT_THROW(select_paths_sharded(MatrixPanelSource(zeros), kTcons, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace repro::core
