#include "core/subset_select.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "linalg/cholesky.h"
#include "linalg/qr_colpivot.h"
#include "linalg/randomized_eig.h"
#include "util/contracts.h"
#include "util/telemetry.h"

namespace repro::core {
namespace {

// Rank threshold on Gram eigenvalues: noise below dim * eps * lambda_max
// turns into spurious singular values of order sqrt(dim * eps) * sigma_max,
// so the singular-value threshold must sit above that level.
double gram_rank_rel_tol(std::size_t rows, std::size_t cols) {
  const double dim = static_cast<double>(std::max(rows, cols));
  return std::sqrt(dim * std::numeric_limits<double>::epsilon()) * 4.0;
}

}  // namespace

SubsetSelector::SubsetSelector(const linalg::Matrix& a, linalg::Matrix gram)
    : rows_(a.rows()), cols_(a.cols()), gram_(std::move(gram)) {
  if (gram_.rows() != rows_ || gram_.cols() != rows_) {
    throw std::invalid_argument("SubsetSelector: gram shape mismatch");
  }
  const util::telemetry::Span span("core.select.factorize");
  util::telemetry::count("core.select.gram_route");
  // rank(A) from the greedy pivoted Cholesky (O(n rank^2)); eigenpairs are
  // captured on demand by ensure_captured().
  const double tol = gram_rank_rel_tol(rows_, cols_);
  linalg::PivotedChol pc =
      linalg::pivoted_cholesky(gram_, tol * tol);  // eigenvalue-scale tol
  greedy_sigma_.resize(pc.rank);
  for (std::size_t k = 0; k < pc.rank; ++k) greedy_sigma_[k] = pc.l(k, k);
  greedy_order_ = std::move(pc.perm);
  rank_ = pc.rank;
}

void SubsetSelector::ensure_captured(std::size_t k) const {
  if (s_.size() >= k) return;
  const util::telemetry::Span span("core.select.eig_capture");
  linalg::RandomizedEigResult eig = linalg::randomized_eig_psd(
      gram_, std::min(rows_, std::max(k, 2 * s_.size())));
  s_.resize(eig.values.size());
  for (std::size_t i = 0; i < eig.values.size(); ++i) {
    s_[i] = std::sqrt(eig.values[i]);
  }
  u_ = std::move(eig.vectors);
}

const linalg::Vector& SubsetSelector::singular_values() const {
  // The spectrum beyond rank() is numerically zero, so capturing `rank_`
  // values yields the complete energy profile.
  ensure_captured(rank_);
  return s_;
}

SubsetSelector make_subset_selector(const linalg::Matrix& a,
                                    linalg::Matrix gram) {
  REPRO_CHECK_DIM(gram.rows(), a.rows(),
                  "make_subset_selector: Gram order vs path count");
  REPRO_CHECK_DIM(gram.rows(), gram.cols(),
                  "make_subset_selector: Gram matrix must be square");
  return SubsetSelector(a, std::move(gram));
}

std::vector<int> SubsetSelector::select(std::size_t r) const {
  if (r == 0 || r > rank_ || r > rows_) {
    throw std::invalid_argument("SubsetSelector::select: bad r");
  }
  // QRCP on U_r^T is not nested across r (the row space truncation changes
  // with r), but it IS deterministic per r — so bisection probes that
  // revisit a candidate size hit the memo instead of re-pivoting.
  const auto hit = select_memo_.find(r);
  if (hit != select_memo_.end()) return hit->second;
  ensure_captured(r);
  // QRCP on U_r^T, whose columns are the rows of U_r: candidate j is the
  // first r entries of row j of u_.  Only the first r pivots are needed.
  linalg::Matrix ur(rows_, r);
  for (std::size_t j = 0; j < rows_; ++j) {
    std::copy_n(u_.row(j).data(), r, ur.row(j).data());
  }
  const linalg::QrcpResult f = linalg::qr_colpivot(std::move(ur), r);
  std::vector<int> rows(f.perm.begin(),
                        f.perm.begin() + static_cast<std::ptrdiff_t>(r));
  return select_memo_.emplace(r, std::move(rows)).first->second;
}

const std::vector<int>& SubsetSelector::greedy_order(
    const linalg::Matrix& gram) const {
  REPRO_CHECK_DIM(gram.rows(), gram.cols(),
                  "SubsetSelector::greedy_order: square Gram");
  if (gram.rows() != rows_ || gram.cols() != rows_) {
    throw std::invalid_argument(
        "SubsetSelector::greedy_order: Gram order vs path count");
  }
  return greedy_order_;
}

}  // namespace repro::core
