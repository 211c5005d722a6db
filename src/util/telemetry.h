// Process-wide observability registry: named counters, gauges, and RAII
// scoped-timer spans, shared by every layer (linalg kernels, selection
// drivers, Monte-Carlo evaluation, the thread pool) and exported by the
// bench harness as the uniform BENCH_<name>.json telemetry block.
//
// Design rules:
//   * One global registry behind a mutex; entries are created on first use
//     and live for the process.  Hot paths go through the free functions
//     (`count`, `set_gauge`, `Span`), which check the enabled flag first —
//     with telemetry disabled they return before touching the registry, so
//     nothing is ever registered (near-zero overhead: one relaxed atomic
//     load).
//   * Counter increments are relaxed atomic adds; span/gauge records take
//     the registry mutex.  Spans are per-phase (dozens to thousands per
//     run), never per-element, so the mutex is uncontended in practice.
//   * Spans aggregate per name — count, total time, max time — and nest
//     freely: a "core.select" span may enclose many "core.error_model"
//     spans; each aggregates under its own name.
//   * The enabled flag is read once from REPRO_TELEMETRY (unset or any
//     value but "0" = enabled) and can be overridden at runtime with
//     set_enabled() (tests, overhead measurement).
//
// Span naming convention: `<layer>.<component>[.<phase>]`, e.g.
// "linalg.qr", "core.select.gram", "bench.mc".  See DESIGN.md §8.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace repro::util::telemetry {

// Global switch.  `enabled()` is a single relaxed atomic load.
bool enabled();
void set_enabled(bool on);

// Adds n to the named counter (registered on first use).  No-op when
// telemetry is disabled.
void count(std::string_view name, std::uint64_t n = 1);

// Sets the named gauge to the latest value.  No-op when disabled.
void set_gauge(std::string_view name, double value);

// RAII scoped timer: measures construction-to-destruction wall time and
// folds it into the per-name aggregate (count/total/max).  Constructing
// with telemetry disabled records nothing.  `stop()` ends the span early.
class Span {
 public:
  explicit Span(std::string_view name);
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void stop();

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  bool active_ = false;
};

// Point-in-time copy of the registry, sorted by name (deterministic output).
struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};
struct GaugeSample {
  std::string name;
  double value = 0.0;
};
struct SpanSample {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double max_ms = 0.0;
};
struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<SpanSample> spans;
  bool empty() const {
    return counters.empty() && gauges.empty() && spans.empty();
  }
};
Snapshot snapshot();

// Removes every registered entry (bench harness start, tests).
void reset();

// {"counters": {...}, "gauges": {...}, "spans": {"name": {"count": ...,
// "total_ms": ..., "max_ms": ...}, ...}} — one self-contained JSON object.
std::string to_json();

// Human-readable aligned dump of the snapshot (bench stdout).
void report(std::ostream& os);

// Escapes a string for embedding inside a JSON string literal (quotes,
// backslashes, control characters).  Shared with the bench harness.
std::string json_escape(std::string_view s);

}  // namespace repro::util::telemetry
