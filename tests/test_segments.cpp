#include "timing/segments.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "circuit/generator.h"
#include "test_helpers.h"
#include "timing/sta.h"

namespace repro::timing {
namespace {

std::vector<Path> all_paths(const TimingGraph& tg) {
  return enumerate_worst_paths(tg, {.max_paths = 100000});
}

TEST(Segments, Figure1HasFourSegments) {
  // The union of the four Figure-1 paths has branch points at the launch
  // gates and G5, giving segments: pi1..G5, pi2..G5, G5-G6-G8-po1 split at
  // G5... concretely: two input trunks into G5, and the two output trunks
  // out of G5 (each one chain), i.e. 4 segments.
  const circuit::Netlist nl = test::figure1_netlist();
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  const auto paths = all_paths(tg);
  ASSERT_EQ(paths.size(), 4u);
  const SegmentDecomposition dec = extract_segments(nl, paths);
  EXPECT_EQ(dec.segments.size(), 4u);
}

TEST(Segments, ChainIsSingleSegment) {
  const circuit::Netlist nl = test::chain_netlist(10);
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  const SegmentDecomposition dec = extract_segments(nl, all_paths(tg));
  EXPECT_EQ(dec.segments.size(), 1u);
  EXPECT_EQ(dec.path_segments[0].size(), 1u);
}

TEST(Segments, DiamondSegmentsPerBranch) {
  const int width = 5;
  const circuit::Netlist nl = test::diamond_netlist(width);
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  const SegmentDecomposition dec = extract_segments(nl, all_paths(tg));
  // One head (in..fork), `width` middle branches, one tail (join..out).
  EXPECT_EQ(dec.segments.size(), static_cast<std::size_t>(width) + 2u);
}

TEST(Segments, PathDelayEqualsSegmentSum) {
  circuit::Netlist nl = circuit::generate_benchmark("s1196");
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  const auto paths = enumerate_worst_paths(tg, {.max_paths = 300});
  const SegmentDecomposition dec = extract_segments(nl, paths);
  for (std::size_t p = 0; p < paths.size(); ++p) {
    double via_segments = 0.0;
    for (int s : dec.path_segments[p]) {
      via_segments += segment_delay_ps(tg, dec.segments[static_cast<std::size_t>(s)]);
    }
    EXPECT_NEAR(via_segments, path_delay_ps(tg, paths[p].gates), 1e-9);
  }
}

TEST(Segments, SegmentsPartitionPathEdges) {
  // Every edge of every path belongs to exactly one segment, and segment
  // interiors never appear as segment endpoints of other segments.
  circuit::Netlist nl = circuit::generate_benchmark("s1423");
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  const auto paths = enumerate_worst_paths(tg, {.max_paths = 150});
  const SegmentDecomposition dec = extract_segments(nl, paths);
  std::size_t edges_in_segments = 0;
  for (const Segment& s : dec.segments) {
    ASSERT_GE(s.gates.size(), 2u);
    edges_in_segments += s.gates.size() - 1;
  }
  // Count distinct path edges.
  std::set<std::pair<circuit::GateId, circuit::GateId>> uniq;
  for (const Path& p : paths) {
    for (std::size_t i = 0; i + 1 < p.gates.size(); ++i) {
      uniq.insert({p.gates[i], p.gates[i + 1]});
    }
  }
  EXPECT_EQ(edges_in_segments, uniq.size());
}

TEST(Segments, SegmentCountAtMostEdgeCount) {
  circuit::Netlist nl = circuit::generate_benchmark("s1196");
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  const auto paths = enumerate_worst_paths(tg, {.max_paths = 400});
  const SegmentDecomposition dec = extract_segments(nl, paths);
  // Lemma 1 context: n_S is a lumped representation of the edges, and the
  // number of segments is typically far below the path count for shared
  // topologies.
  EXPECT_LT(dec.segments.size(), 2 * paths.size());
}

TEST(Segments, CoveredGateCount) {
  const circuit::Netlist nl = test::figure1_netlist();
  const circuit::GateLibrary lib;
  const TimingGraph tg(nl, lib);
  const auto paths = all_paths(tg);
  EXPECT_EQ(covered_gate_count(nl, paths), 9u);
  // A single path covers only its own gates.
  EXPECT_EQ(covered_gate_count(nl, {paths.front()}), 5u);
}

TEST(Segments, EmptyPathSetYieldsNoSegments) {
  const circuit::Netlist nl = test::figure1_netlist();
  const SegmentDecomposition dec = extract_segments(nl, {});
  EXPECT_EQ(dec.segments.size(), 0u);
  EXPECT_TRUE(dec.path_segments.empty());
}

}  // namespace
}  // namespace repro::timing
