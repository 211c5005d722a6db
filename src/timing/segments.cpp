#include "timing/segments.h"

#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace repro::timing {
namespace {

std::uint64_t edge_key(circuit::GateId u, circuit::GateId v) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32) |
         static_cast<std::uint32_t>(v);
}

}  // namespace

SegmentDecomposition extract_segments(const circuit::Netlist& netlist,
                                      const std::vector<Path>& paths) {
  SegmentDecomposition out;

  // Union graph of the paths: distinct edges, per-node successor/degree.
  std::unordered_set<std::uint64_t> edges;
  std::unordered_map<circuit::GateId, std::vector<circuit::GateId>> succ;
  std::unordered_map<circuit::GateId, int> indeg, outdeg;
  for (const Path& p : paths) {
    for (std::size_t i = 0; i + 1 < p.gates.size(); ++i) {
      const circuit::GateId u = p.gates[i];
      const circuit::GateId v = p.gates[i + 1];
      if (edges.insert(edge_key(u, v)).second) {
        succ[u].push_back(v);
        ++outdeg[u];
        ++indeg[v];
      }
    }
  }

  auto interior = [&](circuit::GateId w) {
    const auto ind = indeg.find(w);
    const auto outd = outdeg.find(w);
    return ind != indeg.end() && outd != outdeg.end() && ind->second == 1 &&
           outd->second == 1;
  };

  // Build segments: an edge (u, v) starts a segment iff u is not interior.
  std::unordered_map<std::uint64_t, int> edge_segment;
  for (const auto& [u, sinks] : succ) {
    if (interior(u)) continue;
    for (circuit::GateId v0 : sinks) {
      Segment seg;
      seg.gates.push_back(u);
      circuit::GateId v = v0;
      while (true) {
        seg.gates.push_back(v);
        if (!interior(v)) break;
        v = succ[v].front();
      }
      const int sid = static_cast<int>(out.segments.size());
      for (std::size_t i = 0; i + 1 < seg.gates.size(); ++i) {
        edge_segment[edge_key(seg.gates[i], seg.gates[i + 1])] = sid;
      }
      out.segments.push_back(std::move(seg));
    }
  }

  // Per-path segment sequences (the rows of G).
  out.path_segments.resize(paths.size());
  for (std::size_t pi = 0; pi < paths.size(); ++pi) {
    const Path& p = paths[pi];
    int last = -1;
    for (std::size_t i = 0; i + 1 < p.gates.size(); ++i) {
      const auto it = edge_segment.find(edge_key(p.gates[i], p.gates[i + 1]));
      if (it == edge_segment.end()) {
        throw std::logic_error("extract_segments: edge without segment");
      }
      if (it->second != last) {
        out.path_segments[pi].push_back(it->second);
        last = it->second;
      }
    }
  }
  (void)netlist;
  return out;
}

double segment_delay_ps(const TimingGraph& graph, const Segment& segment) {
  double d = 0.0;
  for (std::size_t i = 1; i < segment.gates.size(); ++i) {
    d += graph.gate_delay_ps(segment.gates[i]);
  }
  return d;
}

std::size_t covered_gate_count(const circuit::Netlist& netlist,
                               const std::vector<Path>& paths) {
  std::unordered_set<circuit::GateId> covered;
  for (const Path& p : paths) {
    for (circuit::GateId id : p.gates) {
      if (circuit::is_combinational(netlist.gate(id).type)) covered.insert(id);
    }
  }
  return covered.size();
}

}  // namespace repro::timing
