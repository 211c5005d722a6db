// Effective rank (paper Section 4.2, after Chua et al., "Network Kriging").
//
// Given the singular values of the path-sensitivity matrix A, the effective
// rank at threshold eta is the smallest k whose leading singular values
// capture (1 - eta) of the total energy E = sum_i lambda_i.  It lower-bounds
// how many representative paths are needed for a given prediction accuracy,
// and is the quantity Figure 2 visualizes.
#pragma once

#include <cstddef>

#include "linalg/matrix.h"

namespace repro::core {

// `singular_values` must be sorted non-increasing (as produced by
// SubsetSelector::singular_values).  eta in [0, 1); eta = 0 returns the
// count of nonzero values.
std::size_t effective_rank(const linalg::Vector& singular_values, double eta);

// Normalized singular values lambda_i / sum(lambda), the series plotted in
// Figure 2.
linalg::Vector normalized_singular_values(const linalg::Vector& singular_values);

}  // namespace repro::core
