#include "core/sharded_selection.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "linalg/residual_basis.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace repro::core {
namespace {

// Per-path state bits.  kCached: materialized as a candidate at least once;
// kEntering: refill scratch, chosen for the next cache.
constexpr unsigned char kSelected = 1;
constexpr unsigned char kCached = 2;
constexpr unsigned char kEntering = 4;

using Candidate = std::pair<double, int>;  // (residual, path id)

// The greedy order: larger residual first, ties to the lowest id.  A
// closure, not a function, so the refill's heap operations inline it.
constexpr auto better = [](const Candidate& a, const Candidate& b) {
  return a.first > b.first || (a.first == b.first && a.second < b.second);
};

// Worse than every path: the best candidate of an empty set.
constexpr Candidate kNone{-std::numeric_limits<double>::infinity(),
                          std::numeric_limits<int>::max()};

// Per-path residual state.  folded[i] counts the basis rows folded into
// d[i]: d[i] is exact when folded[i] == basis.size(), else an upper bound.
struct Residuals {
  std::vector<double> d;
  std::vector<std::uint32_t> folded;
  std::vector<unsigned char> state;
};

// One panel of `rows` x m and one id buffer per worker, leased for the whole
// call: every row the kernel sources lands in one of these.
class WorkerPanels {
 public:
  WorkerPanels(std::size_t workers, std::size_t rows, std::size_t m,
               PanelBudget* budget)
      : ids_(workers),
        lease_(budget, workers * (panel_bytes(rows, m) + rows * sizeof(int))) {
    panels_.reserve(workers);  // built in place: no transient extra panel
    for (auto& ids : ids_) {
      panels_.emplace_back(rows, m);
      ids.reserve(rows);
    }
  }

  // Runs `chunks` chunks over at most one task per worker: gather(c, ids)
  // appends the path ids of chunk c (at most `rows` of them), fill_rows
  // sources them into the leading rows of the task's panel, and
  // consume(c, ids, panel) reads them.  Returns the rows sourced.  Chunks
  // must touch disjoint paths: which task runs which chunk is not fixed.
  template <class Gather, class Consume>
  std::size_t run(const PathPanelSource& source, std::size_t chunks,
                  const Gather& gather, const Consume& consume) {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> sourced{0};
    const std::size_t tasks = std::min(panels_.size(), chunks);
    util::parallel_for(0, tasks, 1, [&](std::size_t task, std::size_t) {
      linalg::Matrix& panel = panels_[task];
      std::vector<int>& ids = ids_[task];
      std::size_t rows = 0;
      for (std::size_t c = next++; c < chunks; c = next++) {
        ids.clear();
        gather(c, ids);
        if (ids.empty()) continue;
        source.fill_rows(ids, panel);
        consume(c, std::span<const int>(ids), panel);
        rows += ids.size();
      }
      sourced += rows;
    });
    return sourced;
  }

  std::size_t workers() const { return panels_.size(); }

 private:
  std::vector<linalg::Matrix> panels_;
  std::vector<std::vector<int>> ids_;
  PanelLease lease_;
};

// The block_rows candidates whose rows are held, in slots that keep their
// row across refills.
struct Cache {
  Cache(std::size_t capacity, std::size_t m)
      : ids(capacity, -1), rows(capacity, m) {
    heap.reserve(capacity);
    entering.reserve(capacity);
  }

  std::vector<int> ids;          // slot -> path id, -1 when free
  linalg::Matrix rows;           // row s is path ids[s]
  std::vector<Candidate> heap;   // refill scratch: the chosen candidates
  std::vector<int> entering;     // refill scratch: slots sourced this refill
  Candidate best_out = kNone;    // best (d_i, id) outside the cache
};

// One streamed pass, block by block in parallel.  The first pass sets every
// d_i = ||a_i||^2; a later one refreshes only the unselected paths whose
// d_i is stale and at least tau, folding in the basis rows each has not
// folded yet.  A path it skips keeps a stale bound below tau.
std::size_t stream_pass(const PathPanelSource& source,
                        const linalg::ResidualBasis& basis, bool first,
                        double tau, std::size_t block, WorkerPanels& panels,
                        Residuals& r) {
  const std::size_t n = r.d.size();
  const auto k = static_cast<std::uint32_t>(basis.size());
  return panels.run(
      source, (n + block - 1) / block,
      [&](std::size_t b, std::vector<int>& ids) {
        const std::size_t end = std::min(n, (b + 1) * block);
        for (std::size_t i = b * block; i < end; ++i) {
          if (first || (!(r.state[i] & kSelected) && r.folded[i] < k &&
                        r.d[i] >= tau)) {
            ids.push_back(static_cast<int>(i));
          }
        }
      },
      [&](std::size_t, std::span<const int> ids, const linalg::Matrix& panel) {
        for (std::size_t j = 0; j < ids.size(); ++j) {
          const auto i = static_cast<std::size_t>(ids[j]);
          const double* a = panel.row(j).data();
          if (first) {
            r.d[i] = basis.norm_sq(a);
          } else {
            basis.fold(r.folded[i], k, a, r.d[i]);
          }
          r.folded[i] = k;
        }
      });
}

// Refills the cache with the unselected paths of largest d_i in the greedy
// order, stale bounds included, and records the best path left outside.
// Paths that stay keep their slot and row; entering paths take the freed
// slots, are sourced in parallel and are folded up to the basis, so every
// cached d_i is exact.  Returns the rows sourced; `fresh` counts entering
// paths never cached before.
std::size_t refill_cache(const PathPanelSource& source,
                         const linalg::ResidualBasis& basis,
                         WorkerPanels& panels, Residuals& r, Cache& cache,
                         std::size_t& fresh) {
  // Bounded heap whose front is the worst kept candidate.
  const std::size_t capacity = cache.ids.size();
  std::vector<Candidate>& heap = cache.heap;
  heap.clear();
  cache.best_out = kNone;
  const auto keep_best_out = [&](const Candidate& c) {
    if (better(c, cache.best_out)) cache.best_out = c;
  };
  for (std::size_t i = 0; i < r.d.size(); ++i) {
    if (r.state[i] & kSelected) continue;
    const Candidate c{r.d[i], static_cast<int>(i)};
    if (heap.size() < capacity) {
      heap.push_back(c);
      std::push_heap(heap.begin(), heap.end(), better);
    } else if (better(c, heap.front())) {
      keep_best_out(heap.front());
      std::pop_heap(heap.begin(), heap.end(), better);
      heap.back() = c;
      std::push_heap(heap.begin(), heap.end(), better);
    } else {
      keep_best_out(c);
    }
  }

  for (const Candidate& c : heap) {
    r.state[static_cast<std::size_t>(c.second)] |= kEntering;
  }
  for (int& id : cache.ids) {  // free the slots of paths that leave
    if (id < 0) continue;
    unsigned char& s = r.state[static_cast<std::size_t>(id)];
    if (s & kEntering) {
      s &= ~kEntering;  // stays: its row and d_i are current
    } else {
      id = -1;
    }
  }
  cache.entering.clear();
  std::size_t slot = 0;
  for (const Candidate& c : heap) {
    unsigned char& s = r.state[static_cast<std::size_t>(c.second)];
    if (!(s & kEntering)) continue;
    if (!(s & kCached)) ++fresh;
    s = static_cast<unsigned char>((s & ~kEntering) | kCached);
    while (cache.ids[slot] >= 0) ++slot;
    cache.ids[slot] = c.second;
    cache.entering.push_back(static_cast<int>(slot));
  }

  // Split the entering rows evenly over the workers.
  const std::size_t count = cache.entering.size();
  const std::size_t chunk =
      std::max<std::size_t>(1, (count + panels.workers() - 1) /
                                   panels.workers());
  const auto k = static_cast<std::uint32_t>(basis.size());
  return panels.run(
      source, (count + chunk - 1) / chunk,
      [&](std::size_t c, std::vector<int>& ids) {
        const std::size_t end = std::min(count, (c + 1) * chunk);
        for (std::size_t t = c * chunk; t < end; ++t) {
          const auto s = static_cast<std::size_t>(cache.entering[t]);
          ids.push_back(cache.ids[s]);
        }
      },
      [&](std::size_t c, std::span<const int> ids,
          const linalg::Matrix& panel) {
        for (std::size_t j = 0; j < ids.size(); ++j) {
          const auto s =
              static_cast<std::size_t>(cache.entering[c * chunk + j]);
          const auto i = static_cast<std::size_t>(ids[j]);
          const auto src = panel.row(j);
          std::copy(src.begin(), src.end(), cache.rows.row(s).begin());
          basis.fold(r.folded[i], k, src.data(), r.d[i]);
          r.folded[i] = k;
        }
      });
}

}  // namespace

// Pool and tolerance validation below is unconditional in every build; the
// matrix-shaped preconditions live on the panel source's fill contract.
// repro-lint: allow(contracts)
ShardedSelectionResult select_paths_sharded(
    const PathPanelSource& source, double t_cons,
    const ShardedSelectionOptions& options) {
  if (!(t_cons > 0.0)) {
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
  Residuals r{std::vector<double>(n), std::vector<std::uint32_t>(n, 0),
              std::vector<unsigned char>(n, 0)};
  const PanelLease state_lease(
      &budget, n * (sizeof(double) + sizeof(std::uint32_t) + 1));
  // Cache rows, slot ids, the refill heap and its entering slots.
  const PanelLease cache_lease(
      &budget, panel_bytes(capacity, m) +
                   capacity * (sizeof(Candidate) + 2 * sizeof(int)));
  Cache cache(capacity, m);
  const std::size_t max_rank = std::min(n, m);  // rank(A) <= min(n, m)
  const PanelLease basis_lease(&budget, panel_bytes(max_rank, m));
  linalg::ResidualBasis basis(m, max_rank);

  // Panels in flight: one per worker, no more than there are blocks, fewer
  // if the cap says so (floor 1).
  std::size_t workers = std::min(util::thread_count(), (n + block - 1) / block);
  if (options.memory_cap_bytes > 0) {
    const std::size_t fixed = budget.current();
    const std::size_t per_panel =
        panel_bytes(capacity, m) + capacity * sizeof(int);
    const std::size_t fit = options.memory_cap_bytes > fixed
                                ? (options.memory_cap_bytes - fixed) / per_panel
                                : 0;
    workers = std::clamp<std::size_t>(fit, 1, workers);
  }
  WorkerPanels panels(workers, capacity, m, &budget);

  double tau = -std::numeric_limits<double>::infinity();  // refresh floor
  double floor_tol = 0.0;  // rank floor, as pivoted_cholesky sets it
  double max_residual = 0.0;
  bool done = false;
  while (!done) {
    {
      util::telemetry::Span span("core.shard.pass");
      result.rows_sourced += stream_pass(source, basis, result.passes == 0,
                                         tau, block, panels, r);
    }
    if (result.passes++ == 0) {
      const double max_d0 = *std::max_element(r.d.begin(), r.d.end());
      if (!(max_d0 > 0.0)) {
        throw std::invalid_argument("select_paths_sharded: all-zero pool");
      }
      floor_tol = max_d0 * static_cast<double>(std::max(n, m)) *
                  std::numeric_limits<double>::epsilon() * 16.0;
    }
    result.rows_sourced +=
        refill_cache(source, basis, panels, r, cache, result.union_paths);

    // Exact greedy on the cache: the best cached residual is the pool
    // maximum while it beats, in the greedy order, the best bound outside
    // the cache.  When it does not, the next pass refreshes the paths whose
    // bound reaches it (tau); the others cannot beat it.
    for (;;) {
      std::size_t best = capacity;
      Candidate top = kNone;
      for (std::size_t s = 0; s < capacity; ++s) {
        const int id = cache.ids[s];
        if (id < 0 || (r.state[static_cast<std::size_t>(id)] & kSelected)) {
          continue;
        }
        const Candidate c{r.d[static_cast<std::size_t>(id)], id};
        if (better(c, top)) {
          best = s;
          top = c;
        }
      }
      if (best == capacity) {
        // Nothing left in the cache: done if nothing is left outside.
        done = cache.best_out == kNone;
        max_residual = 0.0;
        tau = -std::numeric_limits<double>::infinity();
        break;
      }
      if (!better(top, cache.best_out)) {
        tau = top.first;
        break;
      }
      max_residual = std::max(top.first, 0.0);
      const double eps = kappa * std::sqrt(max_residual) / t_cons;
      if ((result.representatives.size() >= min_r && eps <= epsilon) ||
          top.first <= floor_tol) {
        done = true;
        break;
      }
      basis.add(cache.rows.row(best));  // above the floor: adds a row
      r.state[static_cast<std::size_t>(top.second)] |= kSelected;
      result.representatives.push_back(top.second);
      const std::size_t k = basis.size() - 1;
      for (std::size_t s = 0; s < capacity; ++s) {
        const int id = cache.ids[s];
        if (id < 0) continue;
        const auto other = static_cast<std::size_t>(id);
        if (r.state[other] & kSelected) continue;
        basis.fold(k, k + 1, cache.rows.row(s).data(), r.d[other]);
        r.folded[other] = static_cast<std::uint32_t>(k + 1);
      }
    }
  }

  std::sort(result.representatives.begin(), result.representatives.end());
  result.eps_r = kappa * std::sqrt(max_residual) / t_cons;
  result.tolerance_met = result.eps_r <= epsilon;
  result.peak_panel_bytes = budget.peak();
  util::telemetry::count("core.shard.passes", result.passes);
  util::telemetry::count("core.shard.union_paths", result.union_paths);
  util::telemetry::count("core.shard.rows_sourced", result.rows_sourced);
  util::telemetry::set_gauge("core.shard.peak_panel_bytes",
                             static_cast<double>(result.peak_panel_bytes));
  util::telemetry::set_gauge("core.shard.eps_r", result.eps_r);
  return result;
}

}  // namespace repro::core
