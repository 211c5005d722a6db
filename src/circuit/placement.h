// Barycentric placement of a netlist into the unit die.
//
// The hierarchical spatial-correlation model assigns gates to quad-tree
// regions by (x, y) position, so connected gates must land near each other
// for within-die correlation to be physically meaningful.  We use the
// classic layered heuristic: x = normalized topological level, y = position
// within the level refined by a few barycenter-ordering sweeps (gates move
// toward the average y of their neighbors), plus deterministic jitter.
#pragma once

#include <cstdint>

#include "circuit/netlist.h"

namespace repro::circuit {

struct PlacementOptions {
  std::uint64_t seed = 7;  // stream of the final-coordinate jitter
};

// Fills Gate::x / Gate::y for every gate, in [0, 1).
void place(Netlist& nl, const PlacementOptions& options = {});

}  // namespace repro::circuit
