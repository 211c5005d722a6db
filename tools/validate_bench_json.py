#!/usr/bin/env python3
"""Validate BENCH_<name>.json telemetry records (bench/bench_common.h schema).

Usage: validate_bench_json.py <dir-or-file> [...]

Checks every record parses as strict JSON with schema_version 2 and the
required keys, evaluates the record's own gates against its metrics, and
requires "ok": true.  The pass/fail policy lives in each bench's gates, so
nothing here names a bench.  Exits non-zero on the first problem.
"""
import glob
import json
import math
import operator
import os
import sys

REQUIRED_KEYS = ("schema_version", "bench", "git", "threads", "scale_mode",
                 "wall_s", "ok", "telemetry_enabled", "metrics", "gates",
                 "telemetry")
TELEMETRY_KEYS = ("counters", "gauges", "spans")
SCALE_MODES = ("fast", "default", "full")
# Gate operators a record may use; "present" (the metric exists) has no
# bound.  == also compares booleans; the ordering operators take numbers.
GATE_OPS = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
            ">=": operator.ge, ">": operator.gt}


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


def check_gates(gates, metrics):
    """Every gate must hold.  A gate on an absent metric fails, and so does
    one whose metric and bound are not comparable under its operator."""
    if not isinstance(gates, list) or not gates:
        raise ValueError("gates is empty or not a list: every bench must "
                         "declare at least one gate")
    for gate in gates:
        metric, op = gate.get("metric"), gate.get("op")
        if metric not in metrics:
            raise ValueError(f"gate on absent metric {metric!r}")
        if op == "present":
            continue
        if op not in GATE_OPS:
            raise ValueError(f"gate on {metric!r}: unknown op {op!r}")
        value, bound = metrics[metric], gate.get("bound")
        flags = isinstance(value, bool) and isinstance(bound, bool)
        numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool)
                      for x in (value, bound))
        if not (numbers or (flags and op == "==")):
            raise ValueError(f"gate {metric} {op} {bound!r}: not comparable "
                             f"with {value!r}")
        if not GATE_OPS[op](value, bound):
            raise ValueError(f"gate failed: {metric} = {value!r}, required "
                             f"{op} {bound!r}")


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
    if rec["schema_version"] != 2:
        raise ValueError(f"schema_version {rec['schema_version']!r} != 2")
    if rec["scale_mode"] not in SCALE_MODES:
        raise ValueError(f"scale_mode {rec['scale_mode']!r} not in {SCALE_MODES}")
    if not isinstance(rec["metrics"], dict):
        raise ValueError("metrics is not an object")
    check_metric_values(rec["metrics"])
    check_gates(rec["gates"], rec["metrics"])
    if rec["ok"] is not True:
        raise ValueError(f"ok is {rec['ok']!r}: the bench reported a failed "
                         f"run")
    for key in TELEMETRY_KEYS:
        if key not in rec["telemetry"]:
            raise ValueError(f"telemetry missing {key!r}")
    # An enabled run whose snapshot is empty means the registry was reset or
    # never flushed — a broken record, not a quiet one.
    if rec["telemetry_enabled"] and not any(rec["telemetry"][key] for key in TELEMETRY_KEYS):
        raise ValueError("telemetry_enabled but the snapshot is empty "
                         "(no counters, gauges, or spans)")
    return rec


def main(argv):
    if argv[1:2] == ["--raw"]:
        # Strict-parse arbitrary JSON documents (no bench schema): used by
        # CI on scraped /metrics responses of the selection daemon.  Rejects
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
        except (OSError, ValueError, TypeError, AttributeError) as e:
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
