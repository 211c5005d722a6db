// Server-side session state: one fully-built selection pipeline per distinct
// SessionConfig, shared across every connection that asks for it.
//
// A session is the expensive part of the service — circuit generation, STA,
// candidate enumeration, the Gram matrix, the Algorithm-1/2 selection
// (SubsetSelector memoizes its pivoted-Cholesky and eigenpair factors and
// per-r QRCP pivot orders), and the Theorem-2 predictor coefficients.  The
// selector and its Gram matrix are released once the session is built.  The
// cache keys on SessionConfig::cache_key(), so a repeat open skips ALL of
// that O(n·r²) work: the regression pin is that the second open of an
// identical config leaves `linalg.qr_colpivot.calls` untouched.
//
// Concurrency:
//   * immutable after build: experiment, selection, predictor —
//     predict traffic reads them lock-free;
//   * the StreamingCalibrator is order-dependent state, serialized by
//     stream_mu (observe is the slow per-die path; contention is fine);
//   * concurrent predict calls go through the PredictBatcher, which gathers
//     whatever is queued while the current leader computes into one panel
//     answered by core::predict_panel (the multi-RHS path).  Batched
//     results are bit-identical to per-die serial predicts by that
//     function's contract, so batching is invisible to clients.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/benchmarks.h"
#include "core/path_selection.h"
#include "core/predictor.h"
#include "core/streaming_calibrator.h"
#include "server/protocol.h"

namespace repro::server {

class Session;

// Gathers concurrent predict calls into panels.  Callers block until the
// panel containing their dies is answered; the first caller to find no
// active leader becomes the leader, drains the queue into a panel, runs
// core::predict_panel (parallel inside via the shared thread pool), and
// wakes the gathered callers.  Requests arriving while a leader computes
// form the next panel — under load the mean panel size grows with
// concurrency, and each coef row then streams from memory once per panel
// instead of once per die.
//
// A caller may submit a whole BLOCK of dies at once (a pipelined run read
// off one connection): the block rides the queue as a unit, costs one
// wait/wakeup regardless of its row count, and its rows keep their order
// inside the panel.
class PredictBatcher {
 public:
  explicit PredictBatcher(const core::LinearPredictor* predictor)
      : predictor_(predictor) {}

  // Blocks until this die's row is computed.  `measured` must have exactly
  // n_meas entries (the server validates before calling).  Returns false
  // only if the panel compute threw (`out` is then untouched).
  bool predict(const std::vector<double>& measured, std::vector<double>& out);

  // Same, for a block of dies; outs[i] answers rows[i].  Every row must
  // have exactly n_meas entries.
  bool predict_block(const std::vector<std::vector<double>>& rows,
                     std::vector<std::vector<double>>& outs);

  // Panels answered so far / dies gathered (telemetry mirrors; readable
  // without locking the batcher).
  std::uint64_t panels() const;
  std::uint64_t dies() const;

 private:
  struct Pending {
    const std::vector<std::vector<double>>* ins = nullptr;
    std::vector<std::vector<double>>* outs = nullptr;
    bool done = false;
    bool failed = false;
  };

  const core::LinearPredictor* predictor_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending*> queue_;
  bool leader_active_ = false;
  std::uint64_t panels_ = 0;
  std::uint64_t dies_ = 0;
};

class Session {
 public:
  std::uint32_t id = 0;
  SessionConfig config;

  // Immutable after build.
  std::unique_ptr<core::Experiment> experiment;
  core::PathSelectionResult selection;
  core::LinearPredictor predictor;  // copy of the calibrator's base predictor

  // Streamed-die state; hold stream_mu for calibrator access.  next_die is
  // the global die index of the next observe (the stream is one sequence
  // per session, however many connections feed it).
  std::unique_ptr<core::StreamingCalibrator> calibrator;
  std::size_t next_die = 0;
  std::mutex stream_mu;

  std::unique_ptr<PredictBatcher> batcher;

  SessionInfo info(bool cached) const;
};

// Builds the full pipeline for `cfg`.  Throws std::runtime_error (wrapping
// whatever the pipeline threw) on failure; the server maps that to a
// kInternal protocol error.
std::shared_ptr<Session> build_session(const SessionConfig& cfg,
                                       std::uint32_t id);

// Config-keyed session cache with single-flight builds: concurrent opens of
// the same config block on ONE build; losers (and later opens) share the
// built session and report cached=true.
class SessionCache {
 public:
  // Returns the session for cfg, building on a miss.  `was_cached` reports
  // whether this open reused an existing (or concurrently-built) session.
  // Propagates build exceptions; a failed build leaves no cache entry, so a
  // later open retries.
  std::shared_ptr<Session> open(const SessionConfig& cfg, bool& was_cached);

  // Session by id; nullptr when unknown.
  std::shared_ptr<Session> find(std::uint32_t id) const;

  std::size_t size() const;

 private:
  struct Entry {
    std::mutex build_mu;  // single-flight latch
    std::shared_ptr<Session> session;  // set once, under build_mu
  };

  mutable std::mutex mu_;
  std::uint32_t next_id_ = 1;
  std::map<std::string, std::shared_ptr<Entry>> by_key_;
  std::map<std::uint32_t, std::shared_ptr<Session>> by_id_;
};

}  // namespace repro::server
