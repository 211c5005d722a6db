// Synthesis emulation: area recovery under a timing constraint.
//
// The paper's netlists are synthesized "for minimum area under a stringent
// timing constraint to ensure that the circuits are optimized".  Min-area
// synthesis downsizes (slows) every cell with positive slack until the slack
// wall: many paths end up near-critical, which is exactly what makes the
// target-path pool span many cones and gives A its published rank structure.
//
// This pass emulates that on the timing graph in one pass: every
// combinational gate with positive slack s gets its delay scaled by
// (1 + kSizingStrength * s / Tcons), capped at kSizingMaxScale times the
// original delay.  Gates on the critical path (s = 0) are untouched, so the
// circuit delay is preserved while the slack distribution compresses toward
// zero.
#pragma once

#include "timing/timing_graph.h"

namespace repro::timing {

// Calibrated so the resulting slack distribution matches the breadth of the
// paper's pools: ~65% of s1423's gates end up within 5% of the wall (their
// 644 paths cover 63% of gates) while only ~9% of s38417's do (their 3507
// paths cover 6%).  Stronger settings drive the entire circuit to the wall,
// which real discrete-size synthesis does not.
inline constexpr double kSizingStrength = 0.15;
inline constexpr double kSizingMaxScale = 1.3;  // max per-gate slowdown

struct SizingReport {
  double t_cons = 0.0;
  double mean_slack_before = 0.0;  // over combinational gates, ps
  double mean_slack_after = 0.0;
  double circuit_delay_after = 0.0;
};

SizingReport emulate_area_recovery(TimingGraph& graph);

}  // namespace repro::timing
