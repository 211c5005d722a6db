#include "circuit/placement.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "util/rng.h"

namespace repro::circuit {
namespace {

constexpr int kBarycenterSweeps = 4;
// Uniform jitter radius of the final coordinates; keeps regions
// non-degenerate.
constexpr double kJitter = 0.015;

}  // namespace

void place(Netlist& nl, const PlacementOptions& options) {
  const std::size_t n = nl.size();
  if (n == 0) return;
  util::Rng rng(options.seed);

  // Topological level of every gate.
  const std::vector<GateId> order = nl.topological_order();
  std::vector<int> level(n, 0);
  int max_level = 0;
  for (GateId id : order) {
    const Gate& g = nl.gate(id);
    int lvl = 0;
    for (GateId d : g.fanin) lvl = std::max(lvl, level[static_cast<std::size_t>(d)] + 1);
    level[static_cast<std::size_t>(id)] = lvl;
    max_level = std::max(max_level, lvl);
  }

  // Group by level; initial y = creation order within level.
  std::vector<std::vector<GateId>> by_level(static_cast<std::size_t>(max_level) + 1);
  for (std::size_t i = 0; i < n; ++i) {
    by_level[static_cast<std::size_t>(level[i])].push_back(static_cast<GateId>(i));
  }
  std::vector<double> y(n, 0.5);
  for (auto& lv : by_level) {
    for (std::size_t k = 0; k < lv.size(); ++k) {
      y[static_cast<std::size_t>(lv[k])] =
          (static_cast<double>(k) + 0.5) / static_cast<double>(lv.size());
    }
  }

  // Barycenter sweeps: reorder each level by the mean y of fanins (forward
  // sweep) / fanouts (backward sweep).
  auto reorder = [&](bool forward) {
    for (std::size_t li = 0; li < by_level.size(); ++li) {
      auto& lv = by_level[forward ? li : by_level.size() - 1 - li];
      std::vector<std::pair<double, GateId>> keyed;
      keyed.reserve(lv.size());
      for (GateId id : lv) {
        const Gate& g = nl.gate(id);
        const auto& nbrs = forward ? g.fanin : g.fanout;
        double key = y[static_cast<std::size_t>(id)];
        if (!nbrs.empty()) {
          double s = 0.0;
          for (GateId nb : nbrs) s += y[static_cast<std::size_t>(nb)];
          key = s / static_cast<double>(nbrs.size());
        }
        keyed.emplace_back(key, id);
      }
      std::stable_sort(keyed.begin(), keyed.end(),
                       [](const auto& a, const auto& b) { return a.first < b.first; });
      for (std::size_t k = 0; k < keyed.size(); ++k) {
        lv[k] = keyed[k].second;
        y[static_cast<std::size_t>(lv[k])] =
            (static_cast<double>(k) + 0.5) / static_cast<double>(lv.size());
      }
    }
  };
  for (int sweep = 0; sweep < kBarycenterSweeps; ++sweep) {
    reorder(/*forward=*/true);
    reorder(/*forward=*/false);
  }

  // Final coordinates with jitter, clamped into [0, 1).
  const double denom = static_cast<double>(std::max(max_level, 1));
  for (std::size_t i = 0; i < n; ++i) {
    Gate& g = nl.gate(static_cast<GateId>(i));
    const double jx = rng.uniform(-kJitter, kJitter);
    const double jy = rng.uniform(-kJitter, kJitter);
    g.x = std::clamp(static_cast<double>(level[i]) / denom + jx, 0.0,
                     std::nextafter(1.0, 0.0));
    g.y = std::clamp(y[i] + jy, 0.0, std::nextafter(1.0, 0.0));
  }
}

}  // namespace repro::circuit
