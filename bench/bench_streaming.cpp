// Streaming recalibration protocol on the Figure-2 circuit (s1423).
//
// Feeds the StreamingCalibrator the same guarded selection and default
// noisy-silicon fault spec as bench_robustness, one die at a time, in two
// scenarios:
//
//   clean — no model drift.  Reports streaming-vs-batch e1 parity (the
//           streaming posterior must not cost accuracy: e1 within a fixed
//           ratio of the batch robust calibrator), the adaptive guard-band
//           trajectory (monotonically non-inflating as information
//           accumulates), and the CUSUM false-alarm count (must be zero);
//   shift — the same stream with a common-mode parameter drift injected at
//           mid-stream.  Reports the drift-detection latency in dies
//           against the budget.
//
// Both the parity ratio and the detection latency are gates in the record
// (bench_common.h), so a drift-detector regression fails CI the same way a
// kernel perf regression does.  Everything is recorded as JSON (argv[1],
// default BENCH_streaming.json).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/benchmarks.h"
#include "core/measurement.h"
#include "core/monte_carlo.h"
#include "core/path_selection.h"
#include "core/predictor.h"
#include "core/streaming_calibrator.h"
#include "linalg/gemm.h"
#include "util/telemetry.h"
#include "util/text.h"

namespace {

using namespace repro;

// Trajectories are emitted downsampled (every stride-th die plus the last)
// so the record stays compact at full scale.
std::string json_trajectory(const linalg::Vector& t, std::size_t points) {
  if (t.empty()) return "[]";
  const std::size_t stride = std::max<std::size_t>(1, t.size() / points);
  std::string js = "[";
  for (std::size_t i = 0; i < t.size(); i += stride) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.6g", i == 0 ? "" : ", ", t[i]);
    js += buf;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, ", %.6g]", t.back());
  js += buf;
  return js;
}

std::string json_gate_counts(const core::StreamStatus& s) {
  std::string js = "{";
  for (std::size_t g = 0; g < core::kNumStreamGates; ++g) {
    if (s.gate_counts[g] == 0) continue;
    if (js.size() > 1) js += ", ";
    js += "\"";
    js += core::to_string(static_cast<core::StreamGate>(g));
    js += "\": " + std::to_string(s.gate_counts[g]);
  }
  js += "}";
  return js;
}

}  // namespace

// An uncaught exception aborting through the libstdc++ terminate
// message is an acceptable failure mode for a bench/demo binary.
// NOLINTNEXTLINE(bugprone-exception-escape)
int main(int argc, char** argv) {
  bench::Harness h("streaming", argc, argv);
  std::printf("=== Streaming recalibration: guard-band + drift detection on "
              "s1423 ===\n\n");

  const core::Experiment e(core::default_experiment_config("s1423"));
  const auto& model = e.model();
  const core::SubsetSelector selector =
      core::make_subset_selector(model.a(), linalg::gram(model.a()));
  const linalg::Matrix& gram = selector.gram();
  core::PathSelectionOptions popt;
  popt.epsilon = 0.05;
  const core::PathSelectionResult sel =
      core::select_representative_paths(selector, gram, e.t_cons_ps(), popt);
  // The robust-flow measured set: eps-selection plus guard slots from the
  // same Algorithm-2 pivot order (see bench_robustness).
  constexpr std::size_t kGuardPaths = 8;
  const std::vector<int> guarded = selector.select(
      std::min(selector.rank(), sel.representatives.size() + kGuardPaths));
  const std::vector<int> backup_order = selector.select(
      std::min(selector.rank(), guarded.size() + 8));

  const core::FaultSpec spec = core::default_fault_spec();
  std::vector<int> dead_paths;
  for (int slot : spec.dead_slots) {
    if (slot >= 0 && static_cast<std::size_t>(slot) < guarded.size()) {
      dead_paths.push_back(guarded[static_cast<std::size_t>(slot)]);
    }
  }
  core::RobustOptions ropt;
  ropt.backup_order = backup_order;
  ropt.measurement_sigma_ps =
      core::expected_noise_sigma(spec, model.mu_paths());
  const core::RobustPredictor predictor = core::make_robust_path_predictor(
      model.a(), model.mu_paths(), guarded, dead_paths, ropt);

  const std::size_t dies = core::default_mc_samples();
  core::StreamingMcOptions sopt;
  sopt.mc.samples = dies;
  sopt.faults = core::without_dead_slots(spec);
  std::printf("|Pr| = %zu, guarded = %zu, stream = %zu dies, "
              "fault spec = default (1%% noise, 5%% outliers, 1 dead)\n\n",
              sel.representatives.size(), guarded.size(), dies);

  // Batch reference: the same predictor under the same fault stream.
  double batch_e1 = 0.0;
  {
    util::telemetry::Span span("bench.batch_reference");
    core::FaultyMcOptions fopt;
    fopt.mc.samples = dies;
    fopt.faults = sopt.faults;
    batch_e1 = core::evaluate_predictor_under_faults(model, predictor, fopt)
                   .metrics.e1;
  }

  // Clean stream: parity, guard-band trajectory, false alarms.
  core::StreamingMcMetrics clean;
  {
    util::telemetry::Span span("bench.clean_stream");
    clean = core::evaluate_predictor_streaming(model, predictor, sopt);
  }
  // Streaming accuracy must track the batch robust predictor.
  constexpr double kE1RatioBudget = 1.1;
  const double ratio =
      batch_e1 > 0.0 ? clean.metrics.e1 / batch_e1 : 0.0;
  const std::size_t clean_false_alarms =
      clean.status.drift_flagged ? 1u : 0u;
  std::printf("clean stream: streaming e1 = %s vs batch e1 = %s "
              "(ratio %.3f, budget %.2f)\n",
              util::fmt_percent(clean.metrics.e1, 2).c_str(),
              util::fmt_percent(batch_e1, 2).c_str(), ratio, kE1RatioBudget);
  std::printf("  guard-band %.4f -> %.4f (%s), accepted %zu / rejected %zu "
              "/ quarantined %zu, false alarms %zu\n",
              clean.initial_guardband, clean.final_guardband,
              clean.guardband_monotone ? "monotone" : "INFLATED",
              clean.status.dies_accepted, clean.status.dies_rejected,
              clean.status.dies_quarantined, clean_false_alarms);

  // Shift scenario: common-mode drift injected at mid-stream.
  constexpr double kDriftMagnitude = 10.0;  // parameter-space norm (~0.4 sigma/param)
  constexpr std::size_t kDriftBudget = 50;  // dies to detection
  core::StreamingMcOptions dopt = sopt;
  dopt.drift.start_die = dies / 2;
  dopt.drift.magnitude = kDriftMagnitude;
  core::StreamingMcMetrics drifted;
  {
    util::telemetry::Span span("bench.shift_stream");
    drifted = core::evaluate_predictor_streaming(model, predictor, dopt);
  }
  const bool drift_detected =
      drifted.drift_flag_die != core::kNoDie &&
      drifted.drift_flag_die >= dopt.drift.start_die;
  const std::size_t latency =
      drift_detected ? drifted.drift_flag_die - dopt.drift.start_die
                     : static_cast<std::size_t>(-1);
  if (drift_detected) {
    std::printf("shift stream: %.1f-sigma drift at die %zu flagged at die "
                "%zu (latency %zu dies, budget %zu)\n",
                kDriftMagnitude, dopt.drift.start_die,
                drifted.drift_flag_die, latency, kDriftBudget);
  } else {
    std::printf("shift stream: %.1f-sigma drift at die %zu NOT flagged\n",
                kDriftMagnitude, dopt.drift.start_die);
  }

  h.metric("benchmark", "s1423");
  h.metric("dies", dies);
  h.metric("representatives", sel.representatives.size());
  h.metric("guarded", guarded.size());
  h.metric("batch_e1", batch_e1);
  h.metric("streaming_e1", clean.metrics.e1);
  h.metric("streaming_e2", clean.metrics.e2);
  h.metric("e1_ratio", ratio);
  h.metric("guardband_initial", clean.initial_guardband);
  h.metric("guardband_final", clean.final_guardband);
  h.metric("guardband_monotone", clean.guardband_monotone);
  h.metric("clean_false_alarms", clean_false_alarms);
  h.metric("dies_accepted", clean.status.dies_accepted);
  h.metric("dies_rejected", clean.status.dies_rejected);
  h.metric("dies_quarantined", clean.status.dies_quarantined);
  h.metric("final_shift_norm", clean.status.shift_norm);
  h.metric("drift_start_die", dopt.drift.start_die);
  h.metric("drift_magnitude", kDriftMagnitude);
  h.metric("drift_detected", drift_detected);
  h.metric("drift_flag_die",
           drift_detected ? static_cast<int>(drifted.drift_flag_die) : -1);
  h.metric("drift_latency_dies",
           drift_detected ? static_cast<int>(latency) : -1);
  h.metric_json("clean_gate_counts", json_gate_counts(clean.status));
  h.metric_json("guardband_trajectory",
                json_trajectory(clean.guardband_trajectory, 64));
  h.metric_json("clean_drift_trajectory",
                json_trajectory(clean.drift_trajectory, 64));
  h.metric_json("shift_drift_trajectory",
                json_trajectory(drifted.drift_trajectory, 64));
  // The adaptive guard-band must never inflate on a clean stream, the clean
  // stream must raise no drift alarm, and the injected shift must be flagged
  // inside the latency budget.
  h.gate("e1_ratio", "<=", kE1RatioBudget);
  h.gate("guardband_monotone", "==", true);
  h.gate("clean_false_alarms", "==", 0);
  h.gate("drift_detected", "==", true);
  h.gate("drift_latency_dies", ">=", 0);
  h.gate("drift_latency_dies", "<=", kDriftBudget);
  h.gate("streaming_e1", "present");
  h.gate("batch_e1", "present");
  return h.finish();
}
