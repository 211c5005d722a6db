#include "core/panel_source.h"

#include <algorithm>
#include <stdexcept>

#include "util/contracts.h"

namespace repro::core {

void MatrixPanelSource::fill_rows(std::span<const int> ids,
                                  linalg::Matrix& out) const {
  REPRO_CHECK(out.rows() >= ids.size(),
              "MatrixPanelSource::fill_rows: fewer panel rows than ids");
  REPRO_CHECK_DIM(out.cols(), a_->cols(),
                  "MatrixPanelSource::fill_rows: panel cols vs params");
  const std::size_t m = a_->cols();
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const int id = ids[k];
    if (id < 0 || static_cast<std::size_t>(id) >= a_->rows()) {
      throw std::out_of_range("MatrixPanelSource::fill_rows: path id");
    }
    const double* src = a_->row(static_cast<std::size_t>(id)).data();
    double* dst = out.row(k).data();
    std::copy(src, src + m, dst);
  }
}

FunctionPanelSource::FunctionPanelSource(std::size_t paths, std::size_t params,
                                         RowFn row)
    : paths_(paths), params_(params), row_(std::move(row)) {
  if (paths_ == 0 || params_ == 0) {
    throw std::invalid_argument(
        "FunctionPanelSource: pool dimensions must be positive");
  }
  if (!row_) {
    throw std::invalid_argument("FunctionPanelSource: row callback required");
  }
}

void FunctionPanelSource::fill_rows(std::span<const int> ids,
                                    linalg::Matrix& out) const {
  REPRO_CHECK(out.rows() >= ids.size(),
              "FunctionPanelSource::fill_rows: fewer panel rows than ids");
  REPRO_CHECK_DIM(out.cols(), params_,
                  "FunctionPanelSource::fill_rows: panel cols vs params");
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const int id = ids[k];
    if (id < 0 || static_cast<std::size_t>(id) >= paths_) {
      throw std::out_of_range("FunctionPanelSource::fill_rows: path id");
    }
    row_(id, out.row(k));
  }
}

}  // namespace repro::core
