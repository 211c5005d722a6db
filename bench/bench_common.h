// Shared bench harness: every binary in bench/ funnels its run through a
// Harness so the cross-PR perf trajectory is a uniform, schema-versioned
// BENCH_<name>.json record instead of free-form stdout.
//
// Record shape (schema_version 2):
//
//   {
//     "schema_version": 2,
//     "bench": "<name>",
//     "git": "<git describe --always --dirty>",
//     "threads": <pool concurrency>,
//     "scale_mode": "fast" | "default" | "full",
//     "wall_s": <total wall-clock>,
//     "ok": true | false,
//     "telemetry_enabled": true | false,
//     "metrics": { ... bench-specific scalars, insertion order ... },
//     "gates": [ {"metric": "<key>", "op": "<=", "bound": <value>}, ... ],
//     "telemetry": { "counters": {...}, "gauges": {...}, "spans": {...} }
//   }
//
// The gates are the bench's whole pass/fail policy: each compares one metric
// of the record against a constant bound, and "ok" is their conjunction
// (plus a successful write).  tools/validate_bench_json.py re-evaluates the
// same gates against the same metrics without knowing any bench by name.
//
// The telemetry block is the process-wide registry snapshot (see
// util/telemetry.h): per-phase wall-clock comes from spans the bench (and
// the instrumented library layers) opened during the run.  The harness
// resets the registry at construction so the record covers exactly one run.
//
// Output path: argv[1] when present and not a flag, else
// BENCH_<name>.json in the current directory.  Phases inside a bench wrap
// their work in `util::telemetry::Span span("bench.<phase>")`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/stopwatch.h"
#include "util/telemetry.h"
#include "util/text.h"
#include "util/thread_pool.h"

#ifndef REPRO_GIT_DESCRIBE
#define REPRO_GIT_DESCRIBE "unknown"
#endif

namespace repro::bench {

inline constexpr int kSchemaVersion = 2;

// Current value of a telemetry counter (0 when it was never bumped).
inline std::uint64_t counter_value(std::string_view name) {
  for (const auto& c : util::telemetry::snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

class Harness {
 public:
  Harness(std::string name, int argc, char** argv)
      : name_(std::move(name)) {
    json_path_ = "BENCH_" + name_ + ".json";
    if (argc > 1 && argv[1][0] != '-') json_path_ = argv[1];
    util::telemetry::reset();
  }

  const std::string& json_path() const { return json_path_; }

  // Bench-specific metrics, emitted under "metrics" in insertion order.
  // Doubles render round-trip exact (%.15g..%.17g, shortest that re-parses
  // to the same bits): %.9g truncated small error metrics (an e1 of
  // 3.2e-05 lost digits; anything below the precision floor flattened), and
  // the cross-PR perf trajectory compares these values.  Non-finite values
  // render as null — nan/inf are not JSON and the validator rejects them.
  void metric(std::string_view key, double v) {
    metrics_.emplace_back(std::string(key), util::json::json_double(v));
  }
  void metric(std::string_view key, std::size_t v) {
    metrics_.emplace_back(std::string(key), std::to_string(v));
  }
  void metric(std::string_view key, int v) {
    metrics_.emplace_back(std::string(key), std::to_string(v));
  }
  void metric(std::string_view key, bool v) {
    metrics_.emplace_back(std::string(key), v ? "true" : "false");
  }
  void metric(std::string_view key, const std::string& v) {
    std::string quoted = "\"";
    quoted += util::telemetry::json_escape(v);
    quoted += '"';
    metrics_.emplace_back(std::string(key), std::move(quoted));
  }
  void metric(std::string_view key, const char* v) {
    metric(key, std::string(v));
  }
  // Pre-rendered JSON value (arrays/objects a bench assembles itself, e.g.
  // the robustness sweeps).  The caller guarantees `raw_json` is valid JSON.
  void metric_json(std::string_view key, std::string raw_json) {
    metrics_.emplace_back(std::string(key), std::move(raw_json));
  }

  // Pass/fail gates, emitted under "gates" in declaration order.  `op` is
  // one of <, <=, ==, >=, > (numeric metric against a numeric bound; == also
  // compares booleans) or "present" (the metric exists, any value).  A gate
  // on a metric the run never reported fails, so a bench can declare its
  // gates before the work that might bail out early.
  void gate(std::string_view metric, std::string_view op, double bound) {
    add_gate(metric, op, util::json::json_double(bound));
  }
  void gate(std::string_view metric, std::string_view op, std::size_t bound) {
    add_gate(metric, op, std::to_string(bound));
  }
  void gate(std::string_view metric, std::string_view op, int bound) {
    add_gate(metric, op, std::to_string(bound));
  }
  void gate(std::string_view metric, std::string_view op, bool bound) {
    add_gate(metric, op, bound ? "true" : "false");
  }
  void gate(std::string_view metric, std::string_view op) {
    add_gate(metric, op, "");
  }
  // String bounds are not comparable; without this a literal would
  // silently bind to the bool overload.
  void gate(std::string_view, std::string_view, const char*) = delete;

  // Evaluates the gates, prints the telemetry report and any failed gate,
  // writes the JSON record, and returns the process exit code (0 when every
  // gate holds and the write succeeded).
  int finish() {
    const double wall_s = sw_.seconds();
    bool ok = !gates_.empty();
    if (!ok) std::printf("[%s] FAILED: no gates declared\n", name_.c_str());
    for (const Gate& g : gates_) {
      const std::string why = gate_failure(g);
      if (why.empty()) continue;
      ok = false;
      std::printf("[%s] GATE FAILED: %s %s%s%s (%s)\n", name_.c_str(),
                  g.metric.c_str(), g.op.c_str(), g.bound.empty() ? "" : " ",
                  g.bound.c_str(), why.c_str());
    }
    std::string js;
    js += "{\n  \"schema_version\": ";
    js += std::to_string(kSchemaVersion);
    js += ",\n  \"bench\": \"";
    js += util::telemetry::json_escape(name_);
    js += "\",\n  \"git\": \"";
    js += util::telemetry::json_escape(REPRO_GIT_DESCRIBE);
    js += "\",\n  \"threads\": ";
    js += std::to_string(util::thread_count());
    js += ",\n  \"scale_mode\": \"";
    js += scale_mode_name();
    js += "\",\n  \"wall_s\": ";
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.3f", wall_s);
    js += buf;
    js += ",\n  \"ok\": ";
    js += ok ? "true" : "false";
    // Lets the validator distinguish "telemetry off" from "snapshot lost":
    // an enabled run with an empty telemetry block is a broken record.
    js += ",\n  \"telemetry_enabled\": ";
    js += util::telemetry::enabled() ? "true" : "false";
    js += ",\n  \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      js += (i == 0) ? "\n" : ",\n";
      js += "    \"";
      js += util::telemetry::json_escape(metrics_[i].first);
      js += "\": ";
      js += metrics_[i].second;
    }
    js += metrics_.empty() ? "}" : "\n  }";
    js += ",\n  \"gates\": [";
    for (std::size_t i = 0; i < gates_.size(); ++i) {
      const Gate& g = gates_[i];
      js += (i == 0) ? "\n" : ",\n";
      js += "    {\"metric\": \"";
      js += util::telemetry::json_escape(g.metric);
      js += "\", \"op\": \"";
      js += util::telemetry::json_escape(g.op);
      js += '"';
      if (!g.bound.empty()) {
        js += ", \"bound\": ";
        js += g.bound;
      }
      js += '}';
    }
    js += gates_.empty() ? "]" : "\n  ]";
    js += ",\n  \"telemetry\": ";
    js += util::telemetry::to_json();
    js += "\n}\n";

    std::printf("\n[%s] wall %.1f s\n", name_.c_str(), wall_s);
    if (util::telemetry::enabled()) {
      const auto snap = util::telemetry::snapshot();
      std::printf("[%s] telemetry: %zu spans, %zu counters\n", name_.c_str(),
                  snap.spans.size(), snap.counters.size());
    }
    bool wrote = false;
    if (std::FILE* f = std::fopen(json_path_.c_str(), "w")) {
      wrote = std::fputs(js.c_str(), f) >= 0;
      std::fclose(f);
    }
    if (wrote) {
      std::printf("[%s] wrote %s\n", name_.c_str(), json_path_.c_str());
    } else {
      std::printf("[%s] ERROR: could not write %s\n", name_.c_str(),
                  json_path_.c_str());
    }
    return (ok && wrote) ? 0 : 1;
  }

 private:
  struct Gate {
    std::string metric;
    std::string op;
    std::string bound;  // rendered JSON; empty for "present"
  };

  void add_gate(std::string_view metric, std::string_view op,
                std::string bound) {
    gates_.push_back({std::string(metric), std::string(op), std::move(bound)});
  }

  // Why `g` does not hold, or "" when it does.  The same rules as the
  // evaluator in tools/validate_bench_json.py, applied to the same rendered
  // values the record carries.
  std::string gate_failure(const Gate& g) const {
    const auto it =
        std::find_if(metrics_.begin(), metrics_.end(),
                     [&](const auto& m) { return m.first == g.metric; });
    if (it == metrics_.end()) return "metric absent";
    if (g.op == "present") return {};
    util::json::Value value, bound;
    std::string error;
    if (!util::json::parse(it->second, value, error) ||
        !util::json::parse(g.bound, bound, error)) {
      return "unparsable value or bound";
    }
    using util::json::Kind;
    if (g.op == "==" && value.kind == Kind::kBool &&
        bound.kind == Kind::kBool) {
      return value.boolean == bound.boolean ? "" : "got " + it->second;
    }
    if (value.kind != Kind::kNumber || bound.kind != Kind::kNumber) {
      return "not comparable: got " + it->second;
    }
    const double x = value.number, y = bound.number;
    bool holds = false;
    if (g.op == "<") {
      holds = x < y;
    } else if (g.op == "<=") {
      holds = x <= y;
    } else if (g.op == "==") {
      holds = x == y;
    } else if (g.op == ">=") {
      holds = x >= y;
    } else if (g.op == ">") {
      holds = x > y;
    } else {
      return "unknown op";
    }
    return holds ? "" : "got " + it->second;
  }

  static const char* scale_mode_name() {
    switch (util::repro_scale_mode()) {
      case 0: return "fast";
      case 2: return "full";
      default: return "default";
    }
  }

  std::string name_;
  std::string json_path_;
  util::Stopwatch sw_;
  std::vector<std::pair<std::string, std::string>> metrics_;
  std::vector<Gate> gates_;
};

}  // namespace repro::bench
