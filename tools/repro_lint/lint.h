// repro_lint: project-invariant static analysis for the reproduction.
//
// The repository's correctness story — bit-identical parallel Monte Carlo,
// deterministic fault injection, per-chunk telemetry accumulation, contract
// checks on every numeric entry point — rests on conventions that a compiler
// cannot enforce.  This standalone analyzer (a tokenizer plus a lightweight
// scope tracker; no libclang) turns them into machine-checked invariants:
//
//   determinism         rand()/srand(), std::random_device, time(), clock(),
//                       system_clock, std:: engines (mt19937, ...) anywhere
//                       in checked sources.  util::Rng is the only sanctioned
//                       randomness source; steady_clock timing is exempt.
//   parallel-rng        a parallel_for body calling RNG methods on a
//                       generator it did not derive locally (the captured-
//                       generator bug: results then depend on chunk schedule).
//   parallel-telemetry  telemetry::count/set_gauge/Span directly inside a
//                       parallel_for body instead of the local-accumulate-
//                       then-flush pattern (core/monte_carlo.cpp).
//   contracts           a public function in src/linalg/ or src/core/ taking
//                       a Matrix/Vector that never invokes REPRO_CHECK /
//                       REPRO_CHECK_DIM (src/util/contracts.h).
//   pragma-once         a header without #pragma once.
//   banned-include      includes that smuggle in nondeterminism or bloat:
//                       <ctime>, <time.h>, <sys/time.h>, <random>, plus
//                       <iostream> in headers (use <iosfwd>).
//   include-order       unsorted includes within a block, or angle includes
//                       after quoted ones in the same block.
//   simd-confinement    raw vector intrinsics (<immintrin.h>/<arm_neon.h>
//                       includes, _mm*/__m* / NEON identifiers) outside
//                       src/linalg/simd/.  Every other layer goes through
//                       the dispatched KernelOps table, so the scalar
//                       reference tier stays the single source of truth.
//
// On top of the per-file checks, the analyzer runs a two-pass cross-TU
// layer: pass 1 (index.{h,cpp}) builds a project-wide symbol index and
// approximate call graph; pass 2 (global_checks.{h,cpp}) reasons over it.
// Whole-program checks, each reported with the call chain that justifies
// the finding:
//
//   lock-order           a cycle in the global mutex acquisition-order
//                        graph (A held while taking B here, B held while
//                        transitively taking A elsewhere), or the same
//                        mutex re-acquired on one path — potential deadlock.
//   blocking-under-lock  socket I/O, submit(...).get(), parallel_for,
//                        joins, sleeps or flushes reachable while a
//                        lock_guard/unique_lock/raw .lock() is live.
//   cv-wait-predicate    condition_variable::wait(lk) without a predicate
//                        overload — lost/spurious-wakeup hazard.
//   noexcept-boundary    throw-capable code (throw, REPRO_CHECK*,
//                        rethrow_exception, transitively) reachable from a
//                        noexcept function, a destructor, or a configured
//                        entry point, outside any try/catch.
//   hot-path-alloc       allocation or container growth inside
//                        src/linalg/simd/ kernels or configured hot
//                        functions (the packed-panel GEMM driver).
//
// Any finding is suppressible in-source with
//
//     // repro-lint: allow(check-a, check-b)  -- same line or line above
//     // repro-lint: allow-file(check-a)      -- whole file
//
// so true exceptions are visible and reviewable at the use site.
#pragma once

#include <string>
#include <vector>

namespace repro_lint {

struct Finding {
  std::string file;
  int line = 0;
  std::string check;
  std::string message;
  // Cross-TU call chain justifying the finding (outermost frame first),
  // empty for per-file checks.  Frames read "Qualified::name (file:line)".
  // The initializer lets per-file checks omit it from their aggregate
  // initializers without -Wmissing-field-initializers.
  std::vector<std::string> chain = {};
};

struct Options {
  // Files or directories to scan (directories recurse over .h/.hpp/.cpp/.cc).
  std::vector<std::string> roots;
  // Exit code 1 from run_cli when findings remain after suppression.
  bool error_on_findings = false;
  // A file whose normalized path contains one of these substrings is subject
  // to the `contracts` check (implementation files of the public numeric
  // API).
  std::vector<std::string> contract_dirs = {"src/linalg/", "src/core/"};
  // Normalized-path substrings excluded from scanning entirely (the lint
  // test fixtures are deliberate violations).
  std::vector<std::string> skip = {"lint_fixtures"};
  // Files under these normalized-path substrings may use raw vector
  // intrinsics; everywhere else they are `simd-confinement` findings.
  std::vector<std::string> simd_dirs = {"src/linalg/simd/"};
  // `hot-path-alloc` scope: files under these substrings, plus functions
  // whose simple or qualified name matches an entry below.  The panel-source
  // fill_rows implementations are the inner loop of the streamed selection
  // pass (core/panel_source.h documents the no-allocation contract);
  // listing them here makes a silent allocation a lint failure.
  std::vector<std::string> hot_alloc_dirs = {"src/linalg/simd/"};
  std::vector<std::string> hot_alloc_functions = {
      "gemm_packed", "MatrixPanelSource::fill_rows",
      "FunctionPanelSource::fill_rows"};
  // Extra `noexcept-boundary` entry points beyond noexcept functions and
  // destructors, by qualified name: code past these must not leak
  // exceptions (reader strands answer kInternal instead of unwinding; the
  // batcher must never strand queued followers).
  std::vector<std::string> exception_boundaries = {
      "Server::handle_connection", "PredictBatcher::predict_block"};
};

struct Report {
  std::vector<Finding> findings;
  int files_scanned = 0;
  int suppressed = 0;
};

// Lints one in-memory source buffer (unit-test entry point).  `path` decides
// header-only checks and `contracts` applicability.
Report lint_source(const std::string& path, const std::string& content,
                   const Options& options);

// Expands options.roots, lints every checked file, and merges the reports
// (findings sorted by file, then line).
Report run_lint(const Options& options);

// Full command-line front end (see --help).  Returns the process exit code:
// 0 clean (or findings without --error-on-findings), 1 findings, 2 usage or
// I/O error.
int run_cli(int argc, const char* const* argv);

}  // namespace repro_lint
