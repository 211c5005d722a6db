#include "circuit/placement.h"

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/generator.h"

namespace repro::circuit {
namespace {

TEST(Placement, CoordinatesInUnitSquare) {
  Netlist nl = generate_benchmark("s1196");
  place(nl);
  for (const Gate& g : nl.gates()) {
    EXPECT_GE(g.x, 0.0);
    EXPECT_LT(g.x, 1.0);
    EXPECT_GE(g.y, 0.0);
    EXPECT_LT(g.y, 1.0);
  }
}

TEST(Placement, Deterministic) {
  Netlist a = generate_benchmark("s1196");
  Netlist b = generate_benchmark("s1196");
  place(a);
  place(b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto id = static_cast<GateId>(i);
    EXPECT_DOUBLE_EQ(a.gate(id).x, b.gate(id).x);
    EXPECT_DOUBLE_EQ(a.gate(id).y, b.gate(id).y);
  }
}

TEST(Placement, XFollowsTopologicalLevel) {
  Netlist nl = generate_benchmark("s1196");
  place(nl);
  // Every edge goes (roughly) left to right: driver.x <= sink.x + jitter.
  for (const Gate& g : nl.gates()) {
    for (GateId d : g.fanin) {
      EXPECT_LE(nl.gate(d).x, g.x + 0.1);
    }
  }
}

TEST(Placement, ConnectedGatesAreCloserThanRandomPairs) {
  Netlist nl = generate_benchmark("s1423");
  place(nl);
  double edge_dist = 0.0;
  std::size_t edges = 0;
  for (const Gate& g : nl.gates()) {
    for (GateId d : g.fanin) {
      const Gate& gd = nl.gate(d);
      edge_dist += std::hypot(g.x - gd.x, g.y - gd.y);
      ++edges;
    }
  }
  edge_dist /= static_cast<double>(edges);
  // Average distance between uniformly random points in the unit square is
  // ~0.52; a locality-aware placement should be far below that.
  EXPECT_LT(edge_dist, 0.30);
}

TEST(Placement, EmptyNetlistIsNoop) {
  Netlist nl("empty");
  EXPECT_NO_THROW(place(nl));
}

}  // namespace
}  // namespace repro::circuit
