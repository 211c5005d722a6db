// K-worst path enumeration.
//
// Candidate target paths are generated in exactly non-increasing order of a
// per-gate additive score (nominal delay + sigma_weight * standalone delay
// sigma) using best-first search with the exact suffix bound — the classical
// implicit path-tree method for k-longest paths in a DAG.  The score is only
// a *candidate generator*: the paper's statistical yield filter (computed
// from the full correlated variation model) decides which candidates become
// target paths (see core/benchmarks).
#pragma once

#include <cstddef>
#include <vector>

#include "timing/timing_graph.h"

namespace repro::timing {

struct Path {
  std::vector<circuit::GateId> gates;  // launch point ... capture point
  double score = 0.0;                  // enumeration score, ps
};

struct PathEnumOptions {
  std::size_t max_paths = 10000;
  // Weight of the (uncorrelated) delay sigma in the enumeration score;
  // ~3 biases enumeration toward statistically-critical paths.
  double sigma_weight = 3.0;
};

std::vector<Path> enumerate_worst_paths(const TimingGraph& graph,
                                        const PathEnumOptions& options = {});

// Endpoint-balanced enumeration (STA "n-worst per endpoint"): the k worst
// paths are enumerated separately for every capture point, so the candidate
// pool spans all near-critical cones instead of drowning in the exponential
// path count of the single worst cone.  Returns at most `options.max_paths`
// paths, merged and sorted by score (non-increasing).  The per-endpoint
// quota is max_paths / #endpoints, at least `min_quota`.
std::vector<Path> enumerate_worst_paths_per_endpoint(
    const TimingGraph& graph, const PathEnumOptions& options = {},
    std::size_t min_quota = 8);

// Coverage enumeration: the single worst path *through every gate* (best
// prefix + best suffix, one DP pass), deduplicated.  Guarantees that every
// gate's most critical path is a candidate, so the statistical filter — not
// the enumeration budget — decides which circuit regions produce target
// paths.  Complements the per-endpoint enumeration in the extraction flow.
std::vector<Path> worst_path_through_each_gate(
    const TimingGraph& graph, const PathEnumOptions& options = {});

// Total number of launch-to-capture paths (saturating at `cap`), used by
// tests and diagnostics.  Counted with one pass of dynamic programming.
double count_paths(const TimingGraph& graph, double cap = 1e18);

}  // namespace repro::timing
