// Clustered representative-path selection (paper Section 4.4: "if the
// number of target paths is very large, we can apply a clustering procedure
// to form clusters of paths of smaller size for speedup").
//
// Paths are clustered by the direction of their sensitivity rows (spherical
// k-means, cosine similarity — paths correlated through shared segments and
// regions land together), Algorithm 1 runs independently inside every
// cluster, and the merged representatives are verified against the FULL
// target set; paths whose cross-cluster error still exceeds eps are added
// greedily.  The per-cluster factorizations cost O(sum n_c^3) ~ O(n^3 / k^2)
// instead of O(n^3), trading a slightly larger selection for speed — the
// ablation bench quantifies that trade.
#pragma once

#include <cstdint>

#include "core/path_selection.h"

namespace repro::core {

struct ClusteredSelectionOptions {
  std::size_t num_clusters = 0;  // 0 = auto: ~500 paths per cluster
  int kmeans_iterations = 16;
  std::uint64_t seed = 0x5eed5;
  PathSelectionOptions selection;
};

struct ClusteredSelectionResult {
  std::vector<int> representatives;   // indices into A's rows
  std::vector<int> cluster_of_path;   // per path
  std::size_t clusters_used = 0;
  SelectionErrors errors;             // verified on the full set
  double eps_r = 0.0;                 // achieved global error
  std::size_t greedy_additions = 0;   // paths added by the global repair step
};

ClusteredSelectionResult select_paths_clustered(
    const linalg::Matrix& a, double t_cons,
    const ClusteredSelectionOptions& options = {});

// Exposed for testing: spherical k-means over the rows of A.  Returns the
// cluster index per row; clusters are non-empty for k <= distinct nonzero
// rows.
std::vector<int> cluster_rows_spherical(const linalg::Matrix& a,
                                        std::size_t k, int iterations,
                                        std::uint64_t seed);

}  // namespace repro::core
