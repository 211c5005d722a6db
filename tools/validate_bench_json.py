#!/usr/bin/env python3
"""Validate BENCH_<name>.json telemetry records (bench/bench_common.h schema).

Usage: validate_bench_json.py <dir-or-file> [...]

Checks every record parses as JSON, carries schema_version 1, and has the
required top-level and telemetry keys.  Exits non-zero on the first problem
so CI fails loudly instead of uploading broken artifacts.
"""
import glob
import json
import math
import os
import sys

REQUIRED_KEYS = (
    "schema_version",
    "bench",
    "git",
    "threads",
    "scale_mode",
    "wall_s",
    "ok",
    "metrics",
    "telemetry",
)
TELEMETRY_KEYS = ("counters", "gauges", "spans")
SCALE_MODES = ("fast", "default", "full")
# Per-bench metrics the perf trajectory depends on: a record missing one of
# these is a silent hole in the cross-PR history, so fail loudly instead.
REQUIRED_METRICS = {
    "selection_sweep": ("speedup_vs_reference", "panel_speedup",
                        "allocs_per_call", "results_match",
                        "kernel_tier", "gram_gflops", "gram_peak_fraction"),
    "kernels": ("dispatched_tier", "forced_tier", "scalar_timed", "kernel_n",
                "gemm_gflops", "gemm_peak_fraction",
                "syrk_gflops", "syrk_peak_fraction",
                "trsm_gflops", "trsm_peak_fraction",
                "gemm_speedup_vs_scalar", "syrk_speedup_vs_scalar",
                "trsm_speedup_vs_scalar", "qr_over_gemm"),
    "streaming": ("streaming_e1", "batch_e1", "e1_ratio", "e1_ratio_budget",
                  "guardband_monotone", "clean_false_alarms",
                  "drift_detected", "drift_latency_dies",
                  "drift_budget_dies"),
    "server": ("requests_per_s", "concurrent_sessions",
               "batched_speedup_vs_serial", "batch_mean_size",
               "bit_identical", "cache_hit_zero_refactor"),
    "guardband": ("configs", "total_true_fails", "total_missed",
                  "miss_rate", "worst_max_guardband"),
    "shard_scale": ("n_paths", "passes", "eps_r", "tolerance_met",
                    "repair_promotions", "peak_panel_bytes",
                    "mem_budget_bytes", "dense_bytes", "mem_ok",
                    "parity_exact", "thread_invariant"),
}
# Perf-regression gate: minimum dispatched-tier-over-scalar speedups, keyed
# by bench.  Ratios cancel the runner's clock, so the floors hold on any
# throttled CI machine.  Enforced only when the sweep actually timed a
# scalar leg (scalar_timed; any forced REPRO_KERNEL tier skips the scalar
# leg and reports speedup 1.0 by construction) AND the dispatched tier is a
# SIMD tier — scalar-vs-scalar is identically 1.0.  Records predating
# scalar_timed fall back to the dispatched_tier test alone.
SPEEDUP_FLOORS = {
    "kernels": {
        "gemm_speedup_vs_scalar": 1.5,
        "syrk_speedup_vs_scalar": 1.5,
        "trsm_speedup_vs_scalar": 1.05,
    },
}


def reject_constant(name):
    # Python's json module accepts bare NaN/Infinity by default; a record (or
    # scraped metrics document) carrying one is NOT valid JSON and every
    # strict consumer downstream would choke on it.
    raise ValueError(f"non-finite JSON constant {name!r} (invalid JSON)")


def strict_load(f):
    return json.load(f, parse_constant=reject_constant)


def check_metric_values(metrics, prefix="metrics"):
    """Every metric scalar must be machine-consumable: numbers finite,
    nothing unparsable hiding inside nested metric_json blocks."""
    for key, value in metrics.items():
        where = f"{prefix}[{key!r}]"
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{where} is non-finite ({value!r})")
        if isinstance(value, dict):
            check_metric_values(value, where)
        elif isinstance(value, list):
            check_metric_values(dict(enumerate(value)), where)


def collect(args):
    paths = []
    for arg in args:
        if os.path.isdir(arg):
            paths.extend(sorted(glob.glob(os.path.join(arg, "BENCH_*.json"))))
        else:
            paths.append(arg)
    return paths


def validate(path):
    with open(path) as f:
        rec = strict_load(f)
    for key in REQUIRED_KEYS:
        if key not in rec:
            raise ValueError(f"missing key {key!r}")
    if rec["schema_version"] != 1:
        raise ValueError(f"schema_version {rec['schema_version']!r} != 1")
    if rec["scale_mode"] not in SCALE_MODES:
        raise ValueError(f"scale_mode {rec['scale_mode']!r} not in {SCALE_MODES}")
    if not isinstance(rec["metrics"], dict):
        raise ValueError("metrics is not an object")
    if not rec["metrics"]:
        raise ValueError("metrics is empty: every bench must report at least "
                         "one scalar")
    check_metric_values(rec["metrics"])
    for metric in REQUIRED_METRICS.get(rec["bench"], ()):
        if metric not in rec["metrics"]:
            raise ValueError(f"metrics missing {metric!r} "
                             f"(required for bench {rec['bench']!r})")
    floors = SPEEDUP_FLOORS.get(rec["bench"], {})
    scalar_timed = bool(rec["metrics"].get("scalar_timed", True))
    if (floors and scalar_timed
            and rec["metrics"].get("dispatched_tier") != "scalar"):
        for metric, floor in floors.items():
            value = float(rec["metrics"][metric])
            if value < floor:
                raise ValueError(
                    f"perf regression: {metric} = {value:.3g} below the "
                    f"{floor} floor (dispatched_tier = "
                    f"{rec['metrics'].get('dispatched_tier')!r})")
    if rec["bench"] == "streaming":
        # Robustness gate for the streaming calibrator (ISSUE 7 acceptance):
        # streaming accuracy must track the batch robust predictor, the
        # adaptive guard-band must never inflate on a clean stream, the
        # drift detector must flag the injected shift inside the latency
        # budget, and the clean stream must produce zero false alarms.
        met = rec["metrics"]
        ratio = float(met["e1_ratio"])
        ratio_budget = float(met["e1_ratio_budget"])
        if ratio > ratio_budget:
            raise ValueError(
                f"streaming regression: e1_ratio = {ratio:.3f} above the "
                f"{ratio_budget} budget (streaming e1 no longer tracks the "
                f"batch robust predictor)")
        if not met["guardband_monotone"]:
            raise ValueError("streaming regression: adaptive guard-band "
                             "inflated on the clean stream")
        if int(met["clean_false_alarms"]) != 0:
            raise ValueError(
                f"streaming regression: {met['clean_false_alarms']} drift "
                f"false alarm(s) on the clean stream")
        if not met["drift_detected"]:
            raise ValueError("streaming regression: injected drift was "
                             "never flagged")
        latency = int(met["drift_latency_dies"])
        budget = int(met["drift_budget_dies"])
        if latency < 0 or latency > budget:
            raise ValueError(
                f"streaming regression: drift latency {latency} dies "
                f"exceeds the {budget}-die budget")
    if rec["bench"] == "server":
        # Selection-service gate (ISSUE 8 acceptance): batched answers must
        # be bit-identical to serial ones, a cached session must do zero
        # re-selection work, and at default scale the panel path must beat
        # per-request predicts by >= 2x with >= 8 concurrent sessions.
        # (REPRO_FAST pools are too small for the speedup floor to be
        # meaningful, so the perf half of the gate binds at default scale.)
        met = rec["metrics"]
        if not met["bit_identical"]:
            raise ValueError("server regression: batched predictions are not "
                             "bit-identical to serial predictions")
        if not met["cache_hit_zero_refactor"]:
            raise ValueError("server regression: a cached session repeated "
                             "O(n*r^2) selection work on a repeat query")
        if rec["scale_mode"] == "default":
            sessions = int(met["concurrent_sessions"])
            if sessions < 8:
                raise ValueError(f"server record used {sessions} concurrent "
                                 f"sessions (need >= 8)")
            speedup = float(met["batched_speedup_vs_serial"])
            if speedup < 2.0:
                raise ValueError(
                    f"server regression: batched_speedup_vs_serial = "
                    f"{speedup:.3g} below the 2.0 floor at default scale")
    if rec["bench"] == "shard_scale":
        # Streamed out-of-core gate: the kernel must meet the global
        # tolerance, stay bit-identical across thread counts, and return
        # exactly the monolithic greedy sweep's set and eps_r on the pool
        # small enough to run both.  The memory ceiling is the point of the
        # bench: peak leased panel bytes must stay under the harness budget
        # at every scale, and at default/full scale (the million-path pools)
        # strictly under a quarter of the dense n*m footprint the monolithic
        # route would need.
        met = rec["metrics"]
        if not met["tolerance_met"]:
            raise ValueError("shard regression: global tolerance not met")
        if not met["thread_invariant"]:
            raise ValueError("shard regression: streamed selection is not "
                             "bit-identical across thread counts")
        if not met["parity_exact"]:
            raise ValueError("shard regression: streamed selection differs "
                             "from the monolithic greedy sweep at n = "
                             f"{met.get('parity_n')}")
        peak = int(met["peak_panel_bytes"])
        budget = int(met["mem_budget_bytes"])
        if not met["mem_ok"] or peak > budget:
            raise ValueError(
                f"shard regression: peak panel memory {peak} bytes above "
                f"the {budget}-byte ceiling")
        if rec["scale_mode"] in ("default", "full"):
            dense = int(met["dense_bytes"])
            if peak * 4 > dense:
                raise ValueError(
                    f"shard regression: peak panel memory {peak} bytes is "
                    f"not out-of-core (>= 1/4 of the {dense}-byte dense "
                    f"footprint)")
    for key in TELEMETRY_KEYS:
        if key not in rec["telemetry"]:
            raise ValueError(f"telemetry missing {key!r}")
    # An enabled run whose snapshot is empty means the registry was reset or
    # never flushed — a broken record, not a quiet one.  Older records lack
    # the flag; fall back to the environment the validator runs under.
    enabled = rec.get("telemetry_enabled",
                      os.environ.get("REPRO_TELEMETRY", "1") != "0")
    if enabled and not any(rec["telemetry"][key] for key in TELEMETRY_KEYS):
        raise ValueError("telemetry_enabled but the snapshot is empty "
                         "(no counters, gauges, or spans)")
    return rec


def main(argv):
    if argv[1:2] == ["--raw"]:
        # Strict-parse arbitrary JSON documents (no bench schema): used by
        # the CI server-smoke job on scraped /metrics responses.  Rejects
        # NaN/Infinity literals, so a non-finite gauge that leaked into the
        # wire format fails the job.
        for path in argv[2:]:
            with open(path) as f:
                strict_load(f)
            print(f"{path}: strict JSON ok")
        if not argv[2:]:
            print("--raw needs at least one file", file=sys.stderr)
            return 1
        return 0
    paths = collect(argv[1:] or ["."])
    if not paths:
        print("no BENCH_*.json records found", file=sys.stderr)
        return 1
    for path in paths:
        try:
            rec = validate(path)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            print(f"{path}: FAIL: {e}", file=sys.stderr)
            return 1
        tele = rec["telemetry"]
        print(
            f"{path}: ok ({rec['bench']}, {len(tele['spans'])} spans, "
            f"{len(tele['counters'])} counters, wall {rec['wall_s']}s)"
        )
    print(f"{len(paths)} record(s) valid")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
