// Streaming recalibration flow: the predictor learns from every tested die.
//
// Walks core::StreamingCalibrator end to end on a benchmark circuit:
//   1. select representative paths and build the robust batch predictor
//      (the PR-2 flow) — it is both the screening gate in front of the
//      streaming state and the graceful-degradation target behind it;
//   2. feed faulted dies one at a time with observe(), watching individual
//      dies get accepted, rejected (gross whole-die innovation), or
//      quarantined (no usable measurement) with structured gate reasons;
//   3. read the status roll-up: the adaptive guard-band tightening as fab
//      data accumulates, the learned shift norm, and the gate counters;
//   4. re-run the stream with a common-mode process drift injected
//      mid-stream and watch the CUSUM monitor flag it within a few dies.
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "core/benchmarks.h"
#include "core/measurement.h"
#include "core/monte_carlo.h"
#include "core/path_selection.h"
#include "core/predictor.h"
#include "core/streaming_calibrator.h"
#include "linalg/gemm.h"
#include "util/rng.h"
#include "util/text.h"

using namespace repro;

// An uncaught exception aborting through the libstdc++ terminate
// message is an acceptable failure mode for a bench/demo binary.
// NOLINTNEXTLINE(bugprone-exception-escape)
int main() {
  std::printf("=== Streaming recalibration: robust gating, guard-bands, "
              "drift ===\n\n");

  // 1. Clean selection and the robust batch predictor, as in
  //    examples/noisy_silicon_flow.
  const core::Experiment e(core::default_experiment_config("s1196"));
  const auto& model = e.model();
  const core::SubsetSelector selector =
      core::make_subset_selector(model.a(), linalg::gram(model.a()));
  const linalg::Matrix& gram = selector.gram();
  core::PathSelectionOptions popt;
  popt.epsilon = 0.05;
  const core::PathSelectionResult sel =
      core::select_representative_paths(selector, gram, e.t_cons_ps(), popt);
  const std::vector<int>& rep = sel.representatives;

  const core::FaultSpec spec =
      core::without_dead_slots(core::default_fault_spec());
  core::RobustOptions ropt;
  ropt.measurement_sigma_ps =
      core::expected_noise_sigma(spec, model.mu_paths());
  const core::RobustPredictor robust = core::make_robust_path_predictor(
      model.a(), model.mu_paths(), rep, /*dead=*/{}, ropt);
  std::printf("s1196: %zu target paths, %zu representatives (eps = 5%%)\n\n",
              e.target_paths().size(), rep.size());

  // 2. The calibrator starts from the batch predictor and its prior alone.
  core::StreamingCalibrator cal(robust);
  const double prior_guardband = cal.guardband();
  std::printf("prior state: guard-band %.4f, shift ||b|| = %.3f, health %s\n\n",
              prior_guardband, cal.status().shift_norm,
              core::to_string(cal.status().health));

  // Nominal delays of the measured slots (fault placeholder + noise scale).
  linalg::Vector nominal(rep.size());
  for (std::size_t k = 0; k < rep.size(); ++k) {
    nominal[k] = model.mu_paths()[static_cast<std::size_t>(rep[k])];
  }

  // 3. Stream 200 dies through the tester-fault schedule.  Two dies are
  //    sabotaged beyond what the schedule produces, to show the gates.
  util::Rng rng(2026);
  linalg::Vector x(model.num_params());
  constexpr std::size_t kDies = 200;
  constexpr std::size_t kDeadTester = 60;    // every reading non-finite
  constexpr std::size_t kMassOutlier = 120;  // half the slots +30 sigma
  for (std::size_t die = 0; die < kDies; ++die) {
    for (double& v : x) v = rng.normal();
    const linalg::Vector d = model.path_delays(x);
    linalg::Vector clean(rep.size());
    for (std::size_t k = 0; k < rep.size(); ++k) {
      clean[k] = d[static_cast<std::size_t>(rep[k])];
    }
    core::NoisyMeasurements nm =
        core::apply_faults(clean, nominal, spec, die);
    if (die == kDeadTester) {
      for (double& v : nm.values) {
        v = std::numeric_limits<double>::quiet_NaN();
      }
    } else if (die == kMassOutlier) {
      for (std::size_t k = 0; k < nm.values.size(); k += 2) {
        nm.values[k] += 30.0 * ropt.measurement_sigma_ps;
      }
    }
    const core::DieRecord rec = cal.observe(die, nm.values, nm.valid);
    if (die < 2 || die == kDeadTester || die == kMassOutlier ||
        die + 1 == kDies) {
      std::printf("  die %3zu: %-11s gate=%-18s screened=%zu missing=%zu "
                  "guard-band=%.4f\n",
                  die, rec.accepted ? "accepted" : "not updated",
                  core::to_string(rec.gate), rec.screened_slots,
                  rec.missing_slots, rec.guardband);
    }
  }

  // 4. The roll-up after 200 dies: information accumulated, band tightened.
  const core::StreamStatus& st = cal.status();
  std::printf("\nafter %zu dies: health %s, accepted %zu / rejected %zu / "
              "quarantined %zu\n",
              kDies, core::to_string(st.health), st.dies_accepted,
              st.dies_rejected, st.dies_quarantined);
  std::printf("  guard-band %.4f (from %.4f), learned shift ||b|| = %.3f "
              "sigma, drift score %.2f (threshold %.0f)\n",
              st.guardband, prior_guardband, st.shift_norm, st.drift_score,
              core::kStreamCusumH);

  // 5. Same stream, but the process mean drifts mid-stream: the default
  //    common-mode scenario of evaluate_predictor_streaming shifts every
  //    parameter equally from start_die on.  The CUSUM monitor runs on the
  //    whitened coherent-shift statistic and must flag it within a few
  //    dies, with zero false alarms before the shift.
  core::StreamingMcOptions sopt;
  sopt.mc.samples = 400;
  sopt.faults = spec;
  sopt.drift.start_die = 200;
  sopt.drift.magnitude = 10.0;  // parameter-space norm of the mean shift
  const core::StreamingMcMetrics drifted =
      core::evaluate_predictor_streaming(model, robust, sopt);
  std::printf("\ndrift scenario: %.1f-sigma common-mode shift at die %zu\n",
              sopt.drift.magnitude, sopt.drift.start_die);
  if (drifted.drift_flag_die != core::kNoDie) {
    std::printf("  flagged at die %zu (latency %zu dies), final score %.1f, "
                "health %s\n",
                drifted.drift_flag_die,
                drifted.drift_flag_die - sopt.drift.start_die,
                drifted.status.drift_score,
                core::to_string(drifted.status.health));
  } else {
    std::printf("  NOT flagged (final score %.1f)\n",
                drifted.status.drift_score);
  }
  std::printf("\nDone. Next: bench/bench_streaming for the gated latency / "
              "false-alarm / parity record on s1423.\n");
  return 0;
}
