#include "core/sharded_selection.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "linalg/simd/kernels.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace repro::core {
namespace {

// Per-path state bits.  kCached: materialized as a candidate at least once;
// kInCache: in the current cache, so its d_i is already current.
constexpr unsigned char kSelected = 1;
constexpr unsigned char kCached = 2;
constexpr unsigned char kInCache = 4;

using Candidate = std::pair<double, int>;  // (residual, path id)

// The greedy order: larger residual first, ties to the lowest id.
bool better(const Candidate& a, const Candidate& b) {
  return a.first > b.first || (a.first == b.first && a.second < b.second);
}

// The orthonormal basis of the picked rows, one row of m doubles per pick,
// with room for `capacity` rows leased up front.
class Basis {
 public:
  Basis(std::size_t m, std::size_t capacity, PanelBudget* budget)
      : m_(m), ops_(linalg::simd::ops()),
        lease_(budget, panel_bytes(capacity, m)) {
    q_.reserve(capacity * m);
  }

  std::size_t size() const { return q_.size() / m_; }
  const double* row(std::size_t k) const { return q_.data() + k * m_; }
  double norm_sq(const double* a) const { return ops_.dot(m_, a, a); }

  // d -= (q_k . a)^2 for k in [from, to).  Every residual update, streamed
  // or cached, goes through here in basis order, so a path's residual has
  // the same bits whichever route refreshed it.
  void fold(std::size_t from, std::size_t to, const double* a,
            double& d) const {
    for (std::size_t k = from; k < to; ++k) {
      const double c = ops_.dot(m_, row(k), a);
      d -= c * c;
    }
  }

  // Appends the component of `a` orthogonal to the basis, normalized
  // (two-pass modified Gram-Schmidt).  The caller guarantees a residual
  // above the rank floor.
  void add(std::span<const double> a) {
    const std::size_t r = size();
    q_.insert(q_.end(), a.begin(), a.end());
    double* v = q_.data() + r * m_;
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t k = 0; k < r; ++k) {
        ops_.axpy(m_, -ops_.dot(m_, row(k), v), row(k), v);
      }
    }
    const double inv = 1.0 / std::sqrt(norm_sq(v));
    for (std::size_t j = 0; j < m_; ++j) v[j] *= inv;
  }

 private:
  std::size_t m_;
  const linalg::simd::KernelOps& ops_;
  PanelLease lease_;
  std::vector<double> q_;
};

struct Cache {
  std::vector<int> ids;  // ascending
  linalg::Matrix rows;   // rows(s) is path ids[s]
  double bound_out = 0;  // largest residual outside the cache (-inf if none)
};

// Streams every block of the pool once, refreshing each unselected d_i:
// ||a_i||^2 on the first pass, else the basis rows [from, to) folded in.
// Blocks are pulled from a shared counter by at most `workers` tasks, each
// with one leased panel; rows are independent, so the result does not
// depend on which task ran which block.
void stream_pass(const PathPanelSource& source, const Basis& basis,
                 std::size_t from, std::size_t to, bool first,
                 std::size_t block, std::size_t workers,
                 std::vector<double>& d,
                 const std::vector<unsigned char>& state,
                 PanelBudget* budget) {
  const std::size_t n = d.size();
  const std::size_t m = source.params();
  const std::size_t nblocks = (n + block - 1) / block;
  std::atomic<std::size_t> next{0};
  util::parallel_for(0, workers, 1, [&](std::size_t, std::size_t) {
    PanelLease lease;
    std::vector<int> ids;
    linalg::Matrix panel;
    for (std::size_t b = next++; b < nblocks; b = next++) {
      const std::size_t start = b * block;
      const std::size_t rows = std::min(block, n - start);
      if (panel.rows() != rows) {
        lease = PanelLease(budget, panel_bytes(rows, m) + rows * sizeof(int));
        panel = linalg::Matrix(rows, m);
        ids.resize(rows);
      }
      for (std::size_t j = 0; j < rows; ++j) {
        ids[j] = static_cast<int>(start + j);
      }
      source.fill_rows(ids, panel);
      for (std::size_t j = 0; j < rows; ++j) {
        if (state[start + j] & (kSelected | kInCache)) continue;
        const double* a = panel.row(j).data();
        if (first) {
          d[start + j] = basis.norm_sq(a);
        } else {
          basis.fold(from, to, a, d[start + j]);
        }
      }
    }
  });
}

// Refills `cache` with the `capacity` unselected paths of largest residual
// (greedy order) and materializes their rows.  Returns how many of them
// were never cached before.
std::size_t refill_cache(const PathPanelSource& source,
                         const std::vector<double>& d,
                         std::vector<unsigned char>& state,
                         std::size_t capacity, Cache& cache) {
  for (int id : cache.ids) state[static_cast<std::size_t>(id)] &= ~kInCache;
  // Bounded heap whose front is the worst kept candidate.
  std::vector<Candidate> heap;
  heap.reserve(capacity);
  cache.bound_out = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (state[i] & kSelected) continue;
    const Candidate c{d[i], static_cast<int>(i)};
    if (heap.size() < capacity) {
      heap.push_back(c);
      std::push_heap(heap.begin(), heap.end(), better);
    } else if (better(c, heap.front())) {
      cache.bound_out = std::max(cache.bound_out, heap.front().first);
      std::pop_heap(heap.begin(), heap.end(), better);
      heap.back() = c;
      std::push_heap(heap.begin(), heap.end(), better);
    } else {
      cache.bound_out = std::max(cache.bound_out, c.first);
    }
  }
  cache.ids.resize(heap.size());
  for (std::size_t s = 0; s < heap.size(); ++s) cache.ids[s] = heap[s].second;
  std::sort(cache.ids.begin(), cache.ids.end());
  if (cache.rows.rows() != cache.ids.size()) {
    cache.rows = linalg::Matrix(cache.ids.size(), source.params());
  }
  source.fill_rows(cache.ids, cache.rows);
  std::size_t fresh = 0;
  for (int id : cache.ids) {
    unsigned char& s = state[static_cast<std::size_t>(id)];
    if (!(s & kCached)) ++fresh;
    s |= kCached | kInCache;
  }
  return fresh;
}

}  // namespace

// Pool and tolerance validation below is unconditional in every build; the
// matrix-shaped preconditions live on the panel source's fill contract.
// repro-lint: allow(contracts)
ShardedSelectionResult select_paths_sharded(
    const PathPanelSource& source, double t_cons,
    const ShardedSelectionOptions& options) {
  if (t_cons <= 0.0) {
    throw std::invalid_argument(
        "select_paths_sharded: t_cons must be positive");
  }
  const std::size_t n = source.paths();
  const std::size_t m = source.params();
  if (n == 0) throw std::invalid_argument("select_paths_sharded: empty pool");
  const double kappa = options.selection.kappa;
  const double epsilon = options.selection.epsilon;
  const std::size_t min_r = std::max<std::size_t>(options.selection.min_r, 1);
  const std::size_t block = std::max<std::size_t>(options.block_rows, 1);
  const std::size_t capacity = std::min(block, n);

  PanelBudget budget;
  ShardedSelectionResult result;
  std::vector<double> d(n);
  std::vector<unsigned char> state(n, 0);
  const PanelLease state_lease(&budget, n * (sizeof(double) + 1));
  const std::size_t cache_bytes =
      panel_bytes(capacity, m) + capacity * (sizeof(Candidate) + sizeof(int));
  const PanelLease cache_lease(&budget, cache_bytes);
  Basis basis(m, std::min(n, m), &budget);  // rank(A) <= min(n, m)

  // Blocks in flight: one per worker, fewer if the cap says so (floor 1).
  std::size_t workers = util::thread_count();
  if (options.memory_cap_bytes > 0) {
    const std::size_t fixed = budget.current();
    const std::size_t per_block = panel_bytes(block, m) + block * sizeof(int);
    const std::size_t fit = options.memory_cap_bytes > fixed
                                ? (options.memory_cap_bytes - fixed) / per_block
                                : 0;
    workers = std::clamp<std::size_t>(fit, 1, workers);
  }

  Cache cache;
  std::size_t folded = 0;  // basis rows already folded into every d_i
  double floor_tol = 0.0;  // rank floor, as pivoted_cholesky sets it
  double max_residual = 0.0;
  bool done = false;
  while (!done) {
    {
      util::telemetry::Span span("core.shard.pass");
      stream_pass(source, basis, folded, basis.size(), result.passes == 0,
                  block, workers, d, state, &budget);
    }
    folded = basis.size();
    if (result.passes++ == 0) {
      const double max_d0 = *std::max_element(d.begin(), d.end());
      if (!(max_d0 > 0.0)) {
        throw std::invalid_argument("select_paths_sharded: all-zero pool");
      }
      floor_tol = max_d0 * static_cast<double>(std::max(n, m)) *
                  std::numeric_limits<double>::epsilon() * 16.0;
    }
    result.union_paths += refill_cache(source, d, state, capacity, cache);

    // Exact greedy on the cache.  Right after a pass every d_i is exact;
    // later, a cached residual is the pool maximum only while it beats the
    // stale bounds outside the cache.
    for (bool fresh = true;; fresh = false) {
      std::size_t best = cache.ids.size();
      for (std::size_t s = 0; s < cache.ids.size(); ++s) {
        const auto id = static_cast<std::size_t>(cache.ids[s]);
        if (state[id] & kSelected) continue;
        if (best == cache.ids.size() ||
            d[id] > d[static_cast<std::size_t>(cache.ids[best])]) {
          best = s;
        }
      }
      if (best == cache.ids.size()) {
        // Nothing left to price: every path is selected.
        done = cache.bound_out == -std::numeric_limits<double>::infinity();
        max_residual = 0.0;
        break;
      }
      const auto id = static_cast<std::size_t>(cache.ids[best]);
      if (!fresh && !(d[id] > cache.bound_out)) break;  // needs a pass
      max_residual = std::max(d[id], 0.0);
      const double eps = kappa * std::sqrt(max_residual) / t_cons;
      if ((result.representatives.size() >= min_r && eps <= epsilon) ||
          d[id] <= floor_tol) {
        done = true;
        break;
      }
      basis.add(cache.rows.row(best));
      state[id] |= kSelected;
      result.representatives.push_back(static_cast<int>(id));
      const std::size_t k = basis.size() - 1;
      for (std::size_t s = 0; s < cache.ids.size(); ++s) {
        const auto other = static_cast<std::size_t>(cache.ids[s]);
        if (state[other] & kSelected) continue;
        basis.fold(k, k + 1, cache.rows.row(s).data(), d[other]);
      }
    }
  }

  std::sort(result.representatives.begin(), result.representatives.end());
  result.eps_r = kappa * std::sqrt(max_residual) / t_cons;
  result.tolerance_met = result.eps_r <= epsilon;
  result.peak_panel_bytes = budget.peak();
  util::telemetry::count("core.shard.passes", result.passes);
  util::telemetry::count("core.shard.union_paths", result.union_paths);
  util::telemetry::set_gauge("core.shard.peak_panel_bytes",
                             static_cast<double>(result.peak_panel_bytes));
  util::telemetry::set_gauge("core.shard.eps_r", result.eps_r);
  return result;
}

}  // namespace repro::core
