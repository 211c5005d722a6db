// Out-of-core access to the path sensitivity matrix.
//
// Algorithm 1 at paper scale holds the full n x m sensitivity matrix A in
// one address space, which caps the pool at tens of thousands of paths.  The
// streamed selection kernel (core/sharded_selection.h) never touches the
// full matrix: it asks a PathPanelSource to materialize just the rows it
// needs into a caller-owned panel whose size is bounded by the streaming
// block configuration.  The source abstracts where rows come from — an
// in-memory matrix (tests, server sessions), a deterministic generator (the
// synthetic scale bench), or eventually a file/mmap reader — and the
// PanelBudget accounts every resident panel so peak memory is observable
// and gateable.
//
// Contract for fill_rows implementations: `out` is pre-sized by the caller
// to at least ids.size() rows of params() columns; the implementation
// writes every cell of the leading ids.size() rows, leaves the rest
// untouched, and MUST NOT allocate (they are the streamed pass's inner
// loop; repro_lint's hot-path-alloc check is pointed at them, see
// tools/repro_lint/lint.h).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <span>

#include "linalg/matrix.h"

namespace repro::core {

// Tracks the bytes of all currently materialized panels plus the running
// peak.  Thread-safe: block tasks lease panels concurrently from inside
// parallel_for bodies (plain atomics, no telemetry calls in hot regions —
// the caller publishes the peak as a gauge afterwards).
class PanelBudget {
 public:
  void add(std::size_t bytes) {
    const std::size_t now =
        current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::size_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now,
                                        std::memory_order_relaxed)) {
    }
  }
  void sub(std::size_t bytes) {
    current_.fetch_sub(bytes, std::memory_order_relaxed);
  }
  std::size_t current() const {
    return current_.load(std::memory_order_relaxed);
  }
  std::size_t peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::size_t> current_{0};
  std::atomic<std::size_t> peak_{0};
};

// RAII reservation against a PanelBudget: charge on construction, release on
// destruction.  Budget may be null (tracking disabled), which makes the
// lease free.
class PanelLease {
 public:
  PanelLease() = default;
  PanelLease(PanelBudget* budget, std::size_t bytes)
      : budget_(budget), bytes_(bytes) {
    if (budget_ != nullptr) budget_->add(bytes_);
  }
  ~PanelLease() { release(); }
  PanelLease(PanelLease&& other) noexcept
      : budget_(other.budget_), bytes_(other.bytes_) {
    other.budget_ = nullptr;
    other.bytes_ = 0;
  }
  PanelLease& operator=(PanelLease&& other) noexcept {
    if (this != &other) {
      release();
      budget_ = other.budget_;
      bytes_ = other.bytes_;
      other.budget_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  PanelLease(const PanelLease&) = delete;
  PanelLease& operator=(const PanelLease&) = delete;

  void release() {
    if (budget_ != nullptr) budget_->sub(bytes_);
    budget_ = nullptr;
    bytes_ = 0;
  }

 private:
  PanelBudget* budget_ = nullptr;
  std::size_t bytes_ = 0;
};

// Bytes of a rows x cols double panel (the unit every lease is charged in).
inline std::size_t panel_bytes(std::size_t rows, std::size_t cols) {
  return rows * cols * sizeof(double);
}

class PathPanelSource {
 public:
  virtual ~PathPanelSource() = default;

  // Pool dimensions: n target paths x m process parameters.
  virtual std::size_t paths() const = 0;
  virtual std::size_t params() const = 0;

  // Materializes the sensitivity rows for the given global path ids into
  // the leading ids.size() rows of `out` (at least ids.size() x params(),
  // pre-sized by the caller; throws otherwise).  Row k of `out` receives
  // path ids[k]; later rows are left as they are.  Must not allocate — see
  // the file comment.
  virtual void fill_rows(std::span<const int> ids,
                         linalg::Matrix& out) const = 0;
};

// In-memory source: wraps an existing sensitivity matrix (tests, server
// sessions, pools that do fit).  The matrix is borrowed, not copied — it
// must outlive the source.
class MatrixPanelSource final : public PathPanelSource {
 public:
  explicit MatrixPanelSource(const linalg::Matrix& a) : a_(&a) {}

  std::size_t paths() const override { return a_->rows(); }
  std::size_t params() const override { return a_->cols(); }
  void fill_rows(std::span<const int> ids,
                 linalg::Matrix& out) const override;

 private:
  const linalg::Matrix* a_;
};

// Generator-backed source: row i is produced on demand by a deterministic
// function of the path id (the synthetic scale bench derives each row from
// util::Rng::stream(seed, id), so a row's bits never depend on which block
// materializes it).  The callback itself must not allocate.
class FunctionPanelSource final : public PathPanelSource {
 public:
  using RowFn = std::function<void(int id, std::span<double> row)>;

  FunctionPanelSource(std::size_t paths, std::size_t params, RowFn row);

  std::size_t paths() const override { return paths_; }
  std::size_t params() const override { return params_; }
  void fill_rows(std::span<const int> ids,
                 linalg::Matrix& out) const override;

 private:
  std::size_t paths_ = 0;
  std::size_t params_ = 0;
  RowFn row_;
};

}  // namespace repro::core
