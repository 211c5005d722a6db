#include "core/monte_carlo.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "linalg/gemm.h"
#include "util/rng.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace repro::core {
namespace {

// Per remaining path, the max and the running sum of the relative error
// |pred - true| / |true| over the dies folded in so far.
struct ErrorAcc {
  std::vector<double> max, sum;

  explicit ErrorAcc(std::size_t n) : max(n, 0.0), sum(n, 0.0) {}
  void add(std::size_t i, double pred, double truth) {
    const double rel = std::abs(pred - truth) / std::abs(truth);
    max[i] = std::max(max[i], rel);
    sum[i] += rel;
  }
  void merge(const ErrorAcc& part) {
    for (std::size_t i = 0; i < max.size(); ++i) {
      max[i] = std::max(max[i], part.max[i]);
      sum[i] += part.sum[i];
    }
  }
};

// The paper's e1/e2 reduction (Section 6): per-path mean, then the averages
// of the per-path max and mean over the remaining paths.
McMetrics finalize(ErrorAcc acc, std::size_t samples) {
  McMetrics out;
  out.eps_max = std::move(acc.max);
  out.eps_mean = std::move(acc.sum);
  const std::size_t n = out.eps_max.size();
  for (std::size_t i = 0; i < n; ++i) {
    // No dies leave the sums at zero: report zero errors, not 0 / 0.
    if (samples > 0) out.eps_mean[i] /= static_cast<double>(samples);
    out.e1 += out.eps_max[i];
    out.e2 += out.eps_mean[i];
    out.worst_eps = std::max(out.worst_eps, out.eps_max[i]);
  }
  if (n > 0) {
    out.e1 /= static_cast<double>(n);
    out.e2 /= static_cast<double>(n);
  }
  out.samples = samples;
  return out;
}

// One chunk of dies [first, first + c): the centered true delays of the
// remaining paths and the centered measured quantities.  The model means
// enter both sides additively (d = mu + A x), so every policy adds them back
// only where it needs absolute delays.
struct DieChunk {
  std::size_t first = 0;
  linalg::Matrix truth;  // A_rem x,  n_rem x c
  linalg::Matrix meas;   // A_meas x, n_meas x c
};

// The engine's row-compressed sensitivities of one predictor, taken by id
// from the model: remaining paths, then the measured paths and segments in
// LinearPredictor's mu_meas order.  Every evaluator reads its rows here, so
// no predictor carries an n_rem x m copy of A.
struct PredictorRows {
  linalg::SparseRows rem;   // A_rem
  linalg::SparseRows meas;  // A_meas
};

PredictorRows predictor_rows(const variation::VariationModel& model,
                             const LinearPredictor& p) {
  const auto append = [](linalg::SparseRows& rows, const linalg::Matrix& src,
                         int id) {
    const auto i = static_cast<std::size_t>(id);
    if (id < 0 || i >= src.rows()) {
      throw std::out_of_range("predictor_rows: bad row index");
    }
    rows.append_row(src.row(i));
  };
  PredictorRows out{linalg::SparseRows(model.num_params()),
                    linalg::SparseRows(model.num_params())};
  for (int i : p.remaining) append(out.rem, model.a(), i);
  for (int i : p.measured_paths) append(out.meas, model.a(), i);
  for (int s : p.measured_segments) append(out.meas, model.sigma(), s);
  return out;
}

// The die-block engine every evaluator runs on.  Die k draws its parameter
// sample from its own indexed RNG stream (seed, k), so its values depend on
// k alone; dies are grouped into fixed chunks [ci * chunk, (ci + 1) * chunk)
// whose product shapes depend only on the chunk size.  Neither the thread
// count nor the generation wave of for_each_in_order changes a bit.
//
// A_rem and A_meas are held row-compressed: a path's row touches only its
// own gates' variables and the regions it crosses.  linalg::multiply on
// SparseRows keeps the dense product's bits on every tier, so the sparse
// layout changes the time per chunk and nothing else.
class DieStream {
 public:
  DieStream(std::size_t num_params, PredictorRows rows,
            const McOptions& options)
      : m_(num_params),
        rows_(std::move(rows)),
        samples_(options.samples),
        chunk_(std::max<std::size_t>(1, options.chunk)),
        seed_(options.seed) {}

  std::size_t num_chunks() const { return (samples_ + chunk_ - 1) / chunk_; }

  DieChunk draw(std::size_t ci) const {
    const std::size_t first = ci * chunk_;
    const std::size_t c = std::min(chunk_, samples_ - first);
    linalg::Matrix x(m_, c);
    {
      const util::telemetry::Span span("core.mc.draw");
      for (std::size_t j = 0; j < c; ++j) {
        util::Rng rng = util::Rng::stream(seed_, first + j);
        for (std::size_t i = 0; i < m_; ++i) x(i, j) = rng.normal();
      }
    }
    const util::telemetry::Span span("core.mc.product");
    return {first, linalg::multiply(rows_.rem, x),
            linalg::multiply(rows_.meas, x)};
  }

  // Parallel policy: score(chunk, slot) runs on any pool thread, one slot per
  // chunk.  The slots come back in chunk order, so a caller that reduces
  // them front to back keeps a fixed floating-point summation order.
  template <class Slot, class Score>
  std::vector<Slot> map(const Slot& init, Score&& score) const {
    std::vector<Slot> slots(num_chunks(), init);
    util::parallel_for(0, slots.size(), 1, [&](std::size_t cb, std::size_t ce) {
      for (std::size_t ci = cb; ci < ce; ++ci) score(draw(ci), slots[ci]);
    });
    return slots;
  }

  // Ordered policy: consume(chunk) sees every chunk in die order on the
  // calling thread.  Chunks are generated in parallel waves of at least
  // kMinWaveChunks; the wave bounds the staged dies and nothing else.
  template <class Consume>
  void for_each_in_order(Consume&& consume) const {
    constexpr std::size_t kMinWaveChunks = 4;
    const std::size_t n = num_chunks();
    const std::size_t wave =
        std::max<std::size_t>(kMinWaveChunks, util::thread_count());
    std::vector<DieChunk> staged;
    for (std::size_t w0 = 0; w0 < n; w0 += wave) {
      staged.resize(std::min(wave, n - w0));
      util::parallel_for(0, staged.size(), 1,
                         [&](std::size_t cb, std::size_t ce) {
                           for (std::size_t k = cb; k < ce; ++k) {
                             staged[k] = draw(w0 + k);
                           }
                         });
      for (const DieChunk& ch : staged) consume(ch);
    }
  }

 private:
  std::size_t m_;
  PredictorRows rows_;
  std::size_t samples_;
  std::size_t chunk_;
  std::uint64_t seed_;
};

// Per-chunk fault tallies of the faulty policy (see FaultyMcMetrics).
struct FaultCounters {
  std::size_t failed = 0;
  std::size_t ok = 0;
  std::size_t degraded = 0;
  std::size_t screened = 0;
  std::size_t missing = 0;
  std::size_t outliers = 0;
  std::size_t screened_outlier = 0;
  std::size_t screened_noise = 0;
  std::size_t dead = 0;
  std::size_t dropout = 0;

  void merge(const FaultCounters& o) {
    failed += o.failed;
    ok += o.ok;
    degraded += o.degraded;
    screened += o.screened;
    missing += o.missing;
    outliers += o.outliers;
    screened_outlier += o.screened_outlier;
    screened_noise += o.screened_noise;
    dead += o.dead;
    dropout += o.dropout;
  }
};

struct FaultSlot {
  ErrorAcc err;
  FaultCounters cnt;
};

}  // namespace

McMetrics evaluate_predictor(const variation::VariationModel& model,
                             const LinearPredictor& predictor,
                             const McOptions& options) {
  return evaluate_predictor(model, predictor, options, nullptr);
}

McMetrics evaluate_predictor(const variation::VariationModel& model,
                             const LinearPredictor& predictor,
                             const McOptions& options, const ChunkTap& tap) {
  const std::size_t n_rem = predictor.remaining.size();
  if (n_rem == 0) throw std::invalid_argument("evaluate_predictor: no paths");
  const util::telemetry::Span span("core.mc.evaluate");
  util::telemetry::count("core.mc.samples", options.samples);

  const DieStream dies(model.num_params(), predictor_rows(model, predictor),
                       options);

  // Clean policy: one coef x y GEMM per chunk gives the centered predictions.
  const std::vector<ErrorAcc> slots =
      dies.map(ErrorAcc(n_rem), [&](const DieChunk& ch, ErrorAcc& acc) {
        const linalg::Matrix pred = linalg::multiply(predictor.coef, ch.meas);
        for (std::size_t i = 0; i < n_rem; ++i) {
          const double mu_i = predictor.mu_rem[i];
          for (std::size_t j = 0; j < pred.cols(); ++j) {
            acc.add(i, mu_i + pred(i, j), mu_i + ch.truth(i, j));
          }
        }
        if (tap) tap(pred, ch.truth);
      });
  ErrorAcc err(n_rem);
  for (const ErrorAcc& s : slots) err.merge(s);
  return finalize(std::move(err), options.samples);
}

FaultyMcMetrics evaluate_predictor_under_faults(
    const variation::VariationModel& model, const RobustPredictor& predictor,
    const FaultyMcOptions& options) {
  const std::size_t n_rem = predictor.base.remaining.size();
  const std::size_t n_meas = predictor.base.mu_meas.size();
  const util::telemetry::Span span("core.mc.evaluate_faulty");
  util::telemetry::count("core.mc.faulty_samples", options.mc.samples);
  FaultyMcMetrics out;
  out.metrics.samples = options.mc.samples;
  out.metrics.eps_max.assign(n_rem, 0.0);
  out.metrics.eps_mean.assign(n_rem, 0.0);
  if (!predictor.status.usable()) {
    // Defined degradation, not a throw: every die is a nominal-fallback die.
    // Checked before n_rem: a failed construction leaves `remaining` empty.
    out.failed_dies = options.mc.samples;
    util::telemetry::count("core.mc.dies_failed", out.failed_dies);
    return out;
  }
  if (options.mc.samples == 0 || n_rem == 0) return out;

  // Faulty policy: die k's fault schedule comes from stream(faults.seed, k)
  // inside apply_faults, then a robust or naive predict per die.
  const DieStream dies(model.num_params(),
                       predictor_rows(model, predictor.base), options.mc);
  const std::vector<FaultSlot> slots = dies.map(
      FaultSlot{ErrorAcc(n_rem), {}},
      [&](const DieChunk& ch, FaultSlot& slot) {
        FaultCounters& cnt = slot.cnt;
        linalg::Vector clean(n_meas), pred(n_rem);
        for (std::size_t j = 0; j < ch.meas.cols(); ++j) {
          for (std::size_t i = 0; i < n_meas; ++i) {
            clean[i] = predictor.base.mu_meas[i] + ch.meas(i, j);
          }
          const NoisyMeasurements noisy = apply_faults(
              clean, predictor.base.mu_meas, options.faults, ch.first + j);
          cnt.outliers += static_cast<std::size_t>(noisy.outliers);
          cnt.missing += static_cast<std::size_t>(noisy.dropped);
          cnt.dead += static_cast<std::size_t>(noisy.dead);
          cnt.dropout += static_cast<std::size_t>(noisy.dropout);
          if (options.naive) {
            // Plain linear map on the faulty values; invalid slots sit at
            // their nominal delay, i.e. a centered value of zero.
            linalg::Vector centered(n_meas, 0.0);
            for (std::size_t i = 0; i < n_meas; ++i) {
              if (noisy.valid[i]) {
                centered[i] = noisy.values[i] - predictor.base.mu_meas[i];
              }
            }
            pred = linalg::matvec(predictor.base.coef, centered);
            for (std::size_t i = 0; i < n_rem; ++i) {
              pred[i] += predictor.base.mu_rem[i];
            }
          } else {
            RobustPrediction rp = predictor.predict(noisy.values, noisy.valid);
            cnt.screened += rp.screened.size();
            // Attribute each screened slot to the fault that produced it: an
            // injected heavy-tail outlier vs. plain sensor noise (the
            // outlier list per die is short, so a linear scan beats a mask
            // rebuild).
            for (int s : rp.screened) {
              const bool injected =
                  std::find(noisy.outlier_slots.begin(),
                            noisy.outlier_slots.end(),
                            s) != noisy.outlier_slots.end();
              ++(injected ? cnt.screened_outlier : cnt.screened_noise);
            }
            switch (rp.health) {
              case PredictorHealth::kOk: ++cnt.ok; break;
              case PredictorHealth::kDegraded: ++cnt.degraded; break;
              case PredictorHealth::kFailed: ++cnt.failed; break;
            }
            pred = std::move(rp.values);
          }
          for (std::size_t i = 0; i < n_rem; ++i) {
            slot.err.add(i, pred[i], predictor.base.mu_rem[i] + ch.truth(i, j));
          }
        }
      });

  ErrorAcc err(n_rem);
  FaultCounters cnt;
  for (const FaultSlot& s : slots) {
    err.merge(s.err);
    cnt.merge(s.cnt);
  }
  // Per-die PredictorStatus tallies, reported once per evaluation so the hot
  // loop never touches the registry.  Rejections are broken down per fault
  // mode so drift diagnosis can tell tester faults from model drift.
  util::telemetry::count("core.mc.dies_ok", cnt.ok);
  util::telemetry::count("core.mc.dies_degraded", cnt.degraded);
  util::telemetry::count("core.mc.dies_failed", cnt.failed);
  util::telemetry::count("core.mc.reject_outlier", cnt.screened_outlier);
  util::telemetry::count("core.mc.reject_noise", cnt.screened_noise);
  util::telemetry::count("core.mc.slots_dead", cnt.dead);
  util::telemetry::count("core.mc.slots_dropout", cnt.dropout);

  out.metrics = finalize(std::move(err), options.mc.samples);
  const auto samples = static_cast<double>(options.mc.samples);
  out.failed_dies = cnt.failed;
  out.mean_screened = static_cast<double>(cnt.screened) / samples;
  out.mean_missing = static_cast<double>(cnt.missing) / samples;
  out.mean_outliers = static_cast<double>(cnt.outliers) / samples;
  out.mean_screened_outlier =
      static_cast<double>(cnt.screened_outlier) / samples;
  out.mean_screened_noise = static_cast<double>(cnt.screened_noise) / samples;
  out.mean_dead = static_cast<double>(cnt.dead) / samples;
  out.mean_dropout = static_cast<double>(cnt.dropout) / samples;
  return out;
}

StreamingMcMetrics evaluate_predictor_streaming(
    const variation::VariationModel& model, const RobustPredictor& predictor,
    const StreamingMcOptions& options) {
  const std::size_t m = model.num_params();
  const std::size_t n_rem = predictor.base.remaining.size();
  const std::size_t n_meas = predictor.base.mu_meas.size();
  const util::telemetry::Span span("core.mc.evaluate_streaming");
  util::telemetry::count("core.mc.streaming_dies", options.mc.samples);

  StreamingMcMetrics out;
  out.dies = options.mc.samples;
  out.metrics.samples = options.mc.samples;
  out.metrics.eps_max.assign(n_rem, 0.0);
  out.metrics.eps_mean.assign(n_rem, 0.0);

  StreamingCalibrator cal(predictor);
  out.initial_guardband = cal.guardband();
  if (options.mc.samples == 0 || n_rem == 0 || !cal.status().usable()) {
    // Defined degradation: an unusable predictor makes an unusable stream.
    // Feeding dies would only quarantine them one by one; report as-is.
    out.status = cal.status();
    out.final_guardband = cal.guardband();
    return out;
  }

  // Building the rows also checks every id the drift images read.
  const DieStream dies(m, predictor_rows(model, predictor.base), options.mc);

  // Shift images of the injected drift scenario (once, outside the loop):
  // the silicon mean moves by `delta`, so measured slots shift by
  // A_meas delta and true remaining delays by A_rem delta.
  linalg::Vector drift_meas, drift_rem;
  const bool has_drift = options.drift.active();
  if (has_drift) {
    linalg::Vector delta(m, 0.0);
    if (options.drift.direction.size() == m &&
        linalg::norm2(options.drift.direction) > 0.0) {
      const double s =
          options.drift.magnitude / linalg::norm2(options.drift.direction);
      for (std::size_t i = 0; i < m; ++i) {
        delta[i] = s * options.drift.direction[i];
      }
    } else {
      // Common-mode default: every parameter shifts equally.  A random
      // direction would be invisible to most measured slots; common-mode is
      // the physically meaningful "process moved" scenario.
      const double s = options.drift.magnitude /
                       std::sqrt(static_cast<double>(std::max<std::size_t>(m, 1)));
      for (std::size_t i = 0; i < m; ++i) delta[i] = s;
    }
    const auto image = [&](const std::vector<int>& ids) {
      linalg::Vector v(ids.size());
      for (std::size_t k = 0; k < ids.size(); ++k) {
        v[k] = linalg::dot(model.a().row(static_cast<std::size_t>(ids[k])),
                           delta);
      }
      return v;
    };
    drift_meas = image(predictor.base.measured_paths);
    drift_rem = image(predictor.base.remaining);
  }

  out.guardband_trajectory.reserve(options.mc.samples);
  out.drift_trajectory.reserve(options.mc.samples);

  // Streaming policy: the calibrator recursion is order-dependent, so it
  // consumes dies in strict index order into one die-ordered accumulator.
  ErrorAcc err(n_rem);
  double prev_guard = out.initial_guardband;
  linalg::Vector clean(n_meas);
  dies.for_each_in_order([&](const DieChunk& ch) {
    for (std::size_t j = 0; j < ch.meas.cols(); ++j) {
      const std::size_t die = ch.first + j;
      const bool drifted = has_drift && die >= options.drift.start_die;
      for (std::size_t i = 0; i < n_meas; ++i) {
        clean[i] = predictor.base.mu_meas[i] + ch.meas(i, j) +
                   (drifted ? drift_meas[i] : 0.0);
      }
      const NoisyMeasurements noisy = apply_faults(
          clean, predictor.base.mu_meas, options.faults, die);
      const DieRecord rec = cal.observe(die, noisy.values, noisy.valid);
      out.guardband_trajectory.push_back(rec.guardband);
      out.drift_trajectory.push_back(rec.drift_score);
      // Non-inflation check with a tiny absolute slack for the symmetrized
      // covariance roundoff.
      if (rec.guardband > prev_guard + 1e-12) out.guardband_monotone = false;
      prev_guard = rec.guardband;
      if (rec.predicted.size() == n_rem) {
        for (std::size_t i = 0; i < n_rem; ++i) {
          err.add(i, rec.predicted[i],
                  predictor.base.mu_rem[i] + ch.truth(i, j) +
                      (drifted ? drift_rem[i] : 0.0));
        }
      }
    }
  });

  out.metrics = finalize(std::move(err), options.mc.samples);
  out.status = cal.status();
  out.final_guardband = cal.guardband();
  out.drift_flag_die = out.status.drift_flag_die;
  return out;
}

}  // namespace repro::core
