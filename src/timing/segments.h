// Segment extraction (paper Section 2).
//
// Given the graph formed by the union of the target paths, a *segment* is a
// maximal chain of consecutive edges whose interior nodes have no other
// incoming or outgoing edges inside that union.  Because interior nodes have
// in-degree = out-degree = 1, any path touching one edge of a segment
// traverses the entire segment, so the path/segment incidence matrix G is
// 0/1 and d_Ptar = G d_S holds exactly with d_S the segment delays.  G is
// held only as per-path segment lists (row i lists the columns where G is 1).
#pragma once

#include <vector>

#include "timing/path_enum.h"

namespace repro::timing {

struct Segment {
  // Gate sequence g0 -> g1 -> ... -> gk; the traversed edges are
  // (g_i, g_{i+1}).  Delay contributors are gates[1..] (each timing arc
  // u -> v carries the delay of its sink gate v).
  std::vector<circuit::GateId> gates;
};

struct SegmentDecomposition {
  std::vector<Segment> segments;
  // Per path: ordered segment ids along the path -- the nonzero columns of
  // row i of the 0/1 incidence G (paper Eqn (2)).
  std::vector<std::vector<int>> path_segments;
};

SegmentDecomposition extract_segments(const circuit::Netlist& netlist,
                                      const std::vector<Path>& paths);

// Nominal delay of a segment (sum of its contributor gates).
double segment_delay_ps(const TimingGraph& graph, const Segment& segment);

// Number of distinct gates covered by the paths (|G_C| in the paper's
// tables) -- counts only combinational gates.
std::size_t covered_gate_count(const circuit::Netlist& netlist,
                               const std::vector<Path>& paths);

}  // namespace repro::timing
