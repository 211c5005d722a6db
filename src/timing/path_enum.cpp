#include "timing/path_enum.h"

#include <algorithm>
#include <cstdint>
#include <unordered_set>

#include "util/telemetry.h"
#include "util/thread_pool.h"

namespace repro::timing {
namespace {

constexpr double kNegInf = -1e300;

// Suffix sweeps for per-endpoint enumeration run this many capture points
// per reverse pass, one lane each (a 512-bit vector of doubles).
constexpr std::size_t kSinkLanes = 8;

struct ArenaNode {
  std::uint32_t pos;  // topological position of the gate
  int parent;         // index into arena, -1 for path start
};

struct HeapEntry {
  double bound;   // prefix score + exact suffix bound
  double prefix;  // score accumulated up to (and including) node
  int arena_idx;
  bool operator<(const HeapEntry& other) const { return bound < other.bound; }
};

// Search state reused across the sinks one worker enumerates.
struct SearchScratch {
  std::vector<ArenaNode> arena;
  std::vector<HeapEntry> heap;  // max-heap under HeapEntry::operator<
};

std::vector<double> gate_scores(const TimingGraph& graph,
                                const PathEnumOptions& options) {
  const std::size_t n = graph.netlist().size();
  std::vector<double> score(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<circuit::GateId>(i);
    score[i] = graph.gate_delay_ps(id) +
               options.sigma_weight * graph.gate_sigma_total_ps(id);
  }
  return score;
}

// gate_scores indexed by topological position.
std::vector<double> position_scores(const TimingGraph& graph,
                                    const PathEnumOptions& options) {
  const std::vector<double> by_gate = gate_scores(graph, options);
  std::vector<double> score(by_gate.size());
  const auto& topo = graph.topological_order();
  for (std::size_t t = 0; t < topo.size(); ++t) {
    score[t] = by_gate[static_cast<std::size_t>(topo[t])];
  }
  return score;
}

// Exact suffix bounds toward L capture sets at once, over topological
// positions [0, top]: suffix[t * L + l] is the best remaining score from
// position t to a sink of lane l (kNegInf if none is reachable), where bit l
// of sink_lanes[t] marks t as a sink of lane l.  Positions above `top` are
// read, never written, and must hold kNegInf in every lane: a gate there
// comes after every sink of the sweep, so it reaches none of them.  Only
// max and + touch the bounds, so each lane has the bits of a one-sink sweep.
template <std::size_t L>
void suffix_sweep(const TimingGraph& graph, const std::vector<double>& score,
                  const std::vector<std::uint8_t>& sink_lanes, std::size_t top,
                  double* suffix) {
  for (std::size_t t = top + 1; t-- > 0;) {
    double best[L];
    for (std::size_t l = 0; l < L; ++l) best[l] = kNegInf;
    for (std::uint32_t q : graph.fanout_positions(t)) {
      const double sq = score[q];
      const double* sfx = suffix + static_cast<std::size_t>(q) * L;
      for (std::size_t l = 0; l < L; ++l) {
        const double c = sfx[l] > kNegInf ? sq + sfx[l] : kNegInf;
        best[l] = std::max(best[l], c);
      }
    }
    const unsigned mask = sink_lanes[t];
    double* out = suffix + t * L;
    for (std::size_t l = 0; l < L; ++l) {
      out[l] = ((mask >> l) & 1u) != 0 ? 0.0 : best[l];
    }
  }
}

// Best-first enumeration with the implicit path tree; emits at most
// max_paths paths ending at sinks of `lane`, in non-increasing score order.
// The lane's suffix bound of position t is suffix[t * stride].
std::vector<Path> best_first(const TimingGraph& graph,
                             const std::vector<double>& score,
                             const double* suffix, std::size_t stride,
                             const std::vector<std::uint8_t>& sink_lanes,
                             unsigned lane, std::size_t max_paths,
                             SearchScratch& scratch) {
  const auto& topo = graph.topological_order();
  std::vector<ArenaNode>& arena = scratch.arena;
  std::vector<HeapEntry>& heap = scratch.heap;
  arena.clear();
  heap.clear();
  auto push = [&](std::uint32_t pos, int parent, double prefix, double sfx) {
    arena.push_back({pos, parent});
    heap.push_back({prefix + sfx, prefix, static_cast<int>(arena.size()) - 1});
    std::push_heap(heap.begin(), heap.end());
  };
  for (circuit::GateId id : graph.netlist().inputs()) {
    const auto pos = static_cast<std::uint32_t>(graph.topo_position(id));
    const double sfx = suffix[pos * stride];
    if (sfx <= kNegInf) continue;
    push(pos, -1, score[pos], sfx);
  }

  std::vector<Path> out;
  while (!heap.empty() && out.size() < max_paths) {
    std::pop_heap(heap.begin(), heap.end());
    const HeapEntry e = heap.back();
    heap.pop_back();
    const std::uint32_t pos = arena[static_cast<std::size_t>(e.arena_idx)].pos;
    if (((sink_lanes[pos] >> lane) & 1u) != 0) {
      Path p;
      p.score = e.prefix;
      for (int cur = e.arena_idx; cur >= 0;
           cur = arena[static_cast<std::size_t>(cur)].parent) {
        p.gates.push_back(topo[arena[static_cast<std::size_t>(cur)].pos]);
      }
      std::reverse(p.gates.begin(), p.gates.end());
      out.push_back(std::move(p));
      continue;
    }
    for (std::uint32_t q : graph.fanout_positions(pos)) {
      const double sfx = suffix[q * stride];
      if (sfx <= kNegInf) continue;
      push(q, e.arena_idx, e.prefix + score[q], sfx);
    }
  }
  return out;
}

}  // namespace

std::vector<Path> enumerate_worst_paths(const TimingGraph& graph,
                                        const PathEnumOptions& options) {
  const circuit::Netlist& nl = graph.netlist();
  const std::size_t n = nl.size();
  const std::vector<double> score = position_scores(graph, options);
  std::vector<std::uint8_t> sink_lanes(n, 0);
  for (circuit::GateId id : nl.outputs()) sink_lanes[graph.topo_position(id)] = 1;
  std::vector<double> suffix(n, kNegInf);
  if (n > 0) suffix_sweep<1>(graph, score, sink_lanes, n - 1, suffix.data());
  SearchScratch scratch;
  std::vector<Path> out =
      best_first(graph, score, suffix.data(), 1, sink_lanes, 0,
                 options.max_paths, scratch);
  util::telemetry::count("timing.paths_enumerated", out.size());
  return out;
}

std::vector<Path> enumerate_worst_paths_per_endpoint(
    const TimingGraph& graph, const PathEnumOptions& options,
    std::size_t min_quota) {
  const circuit::Netlist& nl = graph.netlist();
  const auto& outputs = nl.outputs();
  if (outputs.empty()) return {};
  const std::size_t n = nl.size();
  const std::vector<double> score = position_scores(graph, options);
  const std::size_t quota = std::max(
      min_quota, options.max_paths / std::max<std::size_t>(outputs.size(), 1));

  // Every endpoint's cone is enumerated independently: consecutive
  // endpoints share one suffix sweep, kSinkLanes at a time, and the sweep
  // groups fan out over the shared pool.  Results merge in endpoint order,
  // so they are identical to the serial per-sink loop for any thread count.
  const util::telemetry::Span span("timing.path_enum.per_endpoint");
  util::telemetry::count("timing.endpoints", outputs.size());
  std::vector<std::vector<Path>> per_endpoint(outputs.size());
  const std::size_t groups = (outputs.size() + kSinkLanes - 1) / kSinkLanes;
  util::parallel_for(0, groups, 1, [&](std::size_t b, std::size_t e) {
    std::vector<double> suffix(n * kSinkLanes, kNegInf);
    std::vector<std::uint8_t> sink_lanes(n, 0);
    SearchScratch scratch;
    std::size_t written = 0;  // positions [0, written) may be stale
    for (std::size_t g = b; g < e; ++g) {
      const std::size_t k0 = g * kSinkLanes;
      const std::size_t k1 = std::min(outputs.size(), k0 + kSinkLanes);
      std::size_t top = 0;
      for (std::size_t k = k0; k < k1; ++k) {
        const std::size_t pos = graph.topo_position(outputs[k]);
        sink_lanes[pos] |= static_cast<std::uint8_t>(1u << (k - k0));
        top = std::max(top, pos);
      }
      if (written > top + 1) {
        std::fill(suffix.begin() + static_cast<std::ptrdiff_t>((top + 1) * kSinkLanes),
                  suffix.begin() + static_cast<std::ptrdiff_t>(written * kSinkLanes),
                  kNegInf);
      }
      suffix_sweep<kSinkLanes>(graph, score, sink_lanes, top, suffix.data());
      written = top + 1;
      for (std::size_t k = k0; k < k1; ++k) {
        const auto lane = static_cast<unsigned>(k - k0);
        per_endpoint[k] = best_first(graph, score, suffix.data() + lane,
                                     kSinkLanes, sink_lanes, lane, quota,
                                     scratch);
      }
      for (std::size_t k = k0; k < k1; ++k) {
        sink_lanes[graph.topo_position(outputs[k])] = 0;
      }
    }
  });
  // Telemetry after the join: counting inside the workers would contend on
  // the registry mutex and interleave with other threads' flushes.
  std::size_t enumerated = 0;
  for (const std::vector<Path>& paths : per_endpoint) {
    enumerated += paths.size();
  }
  util::telemetry::count("timing.paths_enumerated", enumerated);
  std::vector<Path> all;
  for (std::vector<Path>& paths : per_endpoint) {
    all.insert(all.end(), std::make_move_iterator(paths.begin()),
               std::make_move_iterator(paths.end()));
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Path& a, const Path& b) { return a.score > b.score; });
  if (all.size() > options.max_paths) all.resize(options.max_paths);
  return all;
}

std::vector<Path> worst_path_through_each_gate(const TimingGraph& graph,
                                               const PathEnumOptions& options) {
  const circuit::Netlist& nl = graph.netlist();
  const std::size_t n = nl.size();
  const std::vector<double> score = gate_scores(graph, options);

  // Best prefix score (launch -> gate, inclusive) with predecessor links.
  std::vector<double> prefix(n, kNegInf);
  std::vector<circuit::GateId> pred(n, circuit::kInvalidGate);
  for (circuit::GateId id : graph.topological_order()) {
    const auto i = static_cast<std::size_t>(id);
    const circuit::Gate& g = nl.gate(id);
    if (g.type == circuit::GateType::kInput) {
      prefix[i] = score[i];
      continue;
    }
    for (circuit::GateId d : g.fanin) {
      const double p = prefix[static_cast<std::size_t>(d)];
      if (p <= kNegInf) continue;
      if (p + score[i] > prefix[i]) {
        prefix[i] = p + score[i];
        pred[i] = d;
      }
    }
  }
  // Best suffix score (gate -> capture, exclusive) with successor links.
  std::vector<double> suffix(n, kNegInf);
  std::vector<circuit::GateId> succ(n, circuit::kInvalidGate);
  const auto& topo = graph.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const circuit::GateId id = *it;
    const auto i = static_cast<std::size_t>(id);
    if (nl.gate(id).type == circuit::GateType::kOutput) {
      suffix[i] = 0.0;
      continue;
    }
    for (circuit::GateId s : nl.gate(id).fanout) {
      const double sf = suffix[static_cast<std::size_t>(s)];
      if (sf <= kNegInf) continue;
      if (score[static_cast<std::size_t>(s)] + sf > suffix[i]) {
        suffix[i] = score[static_cast<std::size_t>(s)] + sf;
        succ[i] = s;
      }
    }
  }

  std::vector<Path> out;
  std::unordered_set<std::size_t> seen;  // hash of the gate sequence
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<circuit::GateId>(i);
    if (!circuit::is_combinational(nl.gate(id).type)) continue;
    if (prefix[i] <= kNegInf || suffix[i] <= kNegInf) continue;
    Path p;
    p.score = prefix[i] + suffix[i];
    // Walk back to the launch, then forward to the capture.
    std::vector<circuit::GateId> back;
    for (circuit::GateId cur = id; cur != circuit::kInvalidGate;
         cur = pred[static_cast<std::size_t>(cur)]) {
      back.push_back(cur);
    }
    p.gates.assign(back.rbegin(), back.rend());
    for (circuit::GateId cur = succ[i]; cur != circuit::kInvalidGate;
         cur = succ[static_cast<std::size_t>(cur)]) {
      p.gates.push_back(cur);
      if (nl.gate(cur).type == circuit::GateType::kOutput) break;
    }
    // Dedup: many gates share the same worst path.
    std::size_t h = 1469598103934665603ull;
    for (circuit::GateId g : p.gates) {
      h ^= static_cast<std::size_t>(g) + 0x9e3779b9 + (h << 6) + (h >> 2);
    }
    if (seen.insert(h).second) out.push_back(std::move(p));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Path& a, const Path& b) { return a.score > b.score; });
  return out;
}

double count_paths(const TimingGraph& graph, double cap) {
  const circuit::Netlist& nl = graph.netlist();
  std::vector<double> count(nl.size(), 0.0);
  for (circuit::GateId id : nl.inputs()) {
    count[static_cast<std::size_t>(id)] = 1.0;
  }
  double total = 0.0;
  for (circuit::GateId id : graph.topological_order()) {
    const circuit::Gate& g = nl.gate(id);
    if (!g.fanin.empty()) {
      double c = 0.0;
      for (circuit::GateId d : g.fanin) {
        c += count[static_cast<std::size_t>(d)];
      }
      count[static_cast<std::size_t>(id)] = std::min(c, cap);
    }
    if (g.type == circuit::GateType::kOutput) {
      total = std::min(total + count[static_cast<std::size_t>(id)], cap);
    }
  }
  return total;
}

}  // namespace repro::timing
