// Monte-Carlo evaluation of a predictor (paper Section 6 protocol).
//
// N samples of x ~ N(0, I) are pushed through the exact linear model to get
// "silicon" delays; the predictor sees only the measured components and
// predicts the rest.  Metrics follow the paper exactly:
//   eps_i     = max_k |pred_i^k - true_i^k| / true_i^k   (per remaining path)
//   eps-hat_i = mean_k of the same ratio
//   e1 = mean_i eps_i,   e2 = mean_i eps-hat_i.
//
// All four evaluators (clean, fault-injected, streaming, and
// guardband_analysis through the ChunkTap below) run on one die-block
// engine in monte_carlo.cpp.  Die k draws from the deterministic stream
// util::Rng::stream(seed, k); parallel evaluators reduce per-chunk partial
// results in fixed chunk order and the streaming evaluator folds dies in
// index order, so every metric is bit-identical for any thread count (and
// any chunk size, up to the reassociation of the eps_mean sums).
#pragma once

#include <cstdint>
#include <functional>

#include "core/measurement.h"
#include "core/predictor.h"
#include "core/streaming_calibrator.h"
#include "variation/variation_model.h"

namespace repro::core {

struct McOptions {
  std::size_t samples = 10000;
  // Dies per product batch; also the unit of work handed to pool threads.
  // Affects performance only, never the sampled values.
  std::size_t chunk = 256;
  std::uint64_t seed = 0x5eed;
};

struct McMetrics {
  double e1 = 0.0;  // average over remaining paths of the max relative error
  double e2 = 0.0;  // average over remaining paths of the mean relative error
  double worst_eps = 0.0;             // max_i eps_i
  linalg::Vector eps_max;             // per remaining path
  linalg::Vector eps_mean;            // per remaining path
  std::size_t samples = 0;
};

McMetrics evaluate_predictor(const variation::VariationModel& model,
                             const LinearPredictor& predictor,
                             const McOptions& options = {});

// The same evaluation with a read-only tap on every scored chunk: `tap(pred,
// truth)` receives the chunk's centered predicted and true remaining-path
// delays (n_rem x c; add predictor.mu_rem for absolute delays).  It runs on
// whichever pool thread scored the chunk, so it must be thread-safe.
// guardband_analysis tallies its confusion counts here, on exactly the dies
// evaluate_predictor scores.
using ChunkTap = std::function<void(const linalg::Matrix& pred,
                                    const linalg::Matrix& truth)>;
McMetrics evaluate_predictor(const variation::VariationModel& model,
                             const LinearPredictor& predictor,
                             const McOptions& options, const ChunkTap& tap);

// --- Fault-injected evaluation (noisy-silicon robustness protocol) --------
//
// Runs the same e1/e2 protocol, but each die's measurements pass through the
// core/measurement.h fault model before prediction.  Die k draws its
// parameter sample from stream(mc.seed, k) and its fault schedule from
// stream(faults.seed, k), so metrics stay bit-identical for any thread count
// and chunking — the PR-1 guarantee extended to the fault-injected protocol.
//
// Two prediction modes:
//   * robust (default): RobustPredictor::predict — per-die IRLS/Huber
//     calibration, dropout-aware subset solves, outlier screening;
//   * naive == true: the plain Theorem-2 linear map applied to the faulty
//     values, with invalid slots filled by their nominal delay (what a
//     pipeline unaware of measurement faults would compute).
//
// Never throws for fault-injected input: an unusable predictor or an empty
// remaining set yields zero metrics with failed_dies == samples (resp. 0).
struct FaultyMcOptions {
  McOptions mc;
  FaultSpec faults;
  bool naive = false;
};

struct FaultyMcMetrics {
  McMetrics metrics;
  std::size_t failed_dies = 0;   // dies that fell back to nominal prediction
  double mean_screened = 0.0;    // outlier slots screened per die (robust)
  double mean_missing = 0.0;     // invalid measurement slots per die
  double mean_outliers = 0.0;    // outlier slots injected per die
  // Per-fault-mode breakdown (telemetry mirrors: core.mc.reject_outlier,
  // .reject_noise, .slots_dead, .slots_dropout).  Screened slots are
  // attributed to the fault that produced them: an injected heavy-tail
  // outlier vs. plain sensor noise; invalid slots split dead vs. dropout.
  double mean_screened_outlier = 0.0;  // screened slots that were injected
  double mean_screened_noise = 0.0;    // screened slots that were only noisy
  double mean_dead = 0.0;              // dead (always-unmeasurable) slots/die
  double mean_dropout = 0.0;           // per-die dropout slots/die
};

FaultyMcMetrics evaluate_predictor_under_faults(
    const variation::VariationModel& model, const RobustPredictor& predictor,
    const FaultyMcOptions& options = {});

// --- Streaming evaluation (deterministic die stream) ----------------------
//
// Feeds a StreamingCalibrator one die at a time in die order: die k draws its
// silicon from stream(mc.seed, k) and its fault schedule from
// stream(faults.seed, k), exactly like the batch fault protocol.  Die
// *generation* runs in parallel waves of chunks while the calibrator pass is
// sequential by design — the state recursion is order-dependent — so every
// metric and the full trajectory are bit-identical for any thread count.
//
// Optionally injects a model-drift scenario: from `start_die` on, the silicon
// parameter mean shifts by `magnitude` (in parameter sigmas) along
// `direction` (default: common-mode, all parameters equally).  This is the
// drift the CUSUM monitor must flag; the injected shift moves both the
// measured slots and the true remaining-path delays.
struct DriftScenario {
  std::size_t start_die = kNoDie;  // kNoDie = no drift injected
  double magnitude = 0.0;          // parameter-space norm of the mean shift
  linalg::Vector direction;        // optional; normalized internally.  Empty
                                   // = common-mode 1/sqrt(m) per parameter.
  bool active() const { return start_die != kNoDie && magnitude != 0.0; }
};

struct StreamingMcOptions {
  McOptions mc;              // samples = dies in the stream; chunk = product batch
  FaultSpec faults;
  StreamingOptions stream;
  DriftScenario drift;
};

struct StreamingMcMetrics {
  McMetrics metrics;    // e1/e2 of the per-die streaming predictions
  StreamStatus status;  // final calibrator status (gate counts, drift, ...)
  linalg::Vector guardband_trajectory;  // adaptive guard-band per die
  linalg::Vector drift_trajectory;      // CUSUM score per die
  std::size_t dies = 0;
  std::size_t drift_flag_die = kNoDie;  // first die the CUSUM flagged
  double initial_guardband = 0.0;       // prior-only adaptive guard-band
  double final_guardband = 0.0;
  // True when the guard-band never inflated along the stream (expected on a
  // clean stream with forgetting 1).
  bool guardband_monotone = true;
};

// Never throws: an unusable predictor yields an unusable stream whose
// metrics are the nominal-fallback errors.
StreamingMcMetrics evaluate_predictor_streaming(
    const variation::VariationModel& model, const RobustPredictor& predictor,
    const StreamingMcOptions& options = {});

}  // namespace repro::core
