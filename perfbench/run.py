"""The repository benchmark: builds the workload runner from source, runs one
workload and prints the metrics named in BENCHMARK.json.

    python3 perfbench/run.py --workload paper_flow|service_mix|pool_1m \
        --seed <n> --seconds <s> --trace 0|1

Run from the repository root.  Build output goes to .bench_build/perfbench.
--trace 0 prints the end-to-end metrics (telemetry off); --trace 1 prints
the per-layer metrics of a traced run.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the exit code is 0
only when every output check passed.  layers.json maps each metric to the
calls it times and the end-to-end metric it should move.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_workloads")
THREADS = "4"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def value(name):
    return lambda d: d["values"][name]


def median(name):
    return lambda d: statistics.median(d["samples"][name])


def pct(name, p):
    return lambda d: stats.percentile_metric(d["samples"][name], p)


def predict_overhead_us(d):
    """Client p50 minus the core time of one panel of the mean batch size."""
    return (statistics.median(d["samples"]["predict_us"])
            - d["values"]["core.predict_panel_us"])


E2E_SOURCES = {
    "setup_s": median("setup_s"),
    "flow_s": value("flow_s"),
    "select_s": value("select_s"),
    "paths_measured": value("paths_measured"),
    "e1_pct": value("e1_pct"),
    "peak_rss_mib": value("peak_rss_mib"),
}

# The service metrics users see; printed with every service_mix run and
# reported per layer by the traced run.
SERVICE_SOURCES = {
    "server.predict_per_s": value("predict_per_s"),
    "server.predict_p50_us": median("predict_us"),
    "server.predict_p99_us": pct("predict_us", 99.0),
    "server.observe_p50_ms": median("observe_ms"),
    "server.observe_p99_ms": pct("observe_ms", 99.0),
    "server.predict_samples": lambda d: len(d["samples"]["predict_us"]),
    "server.observe_samples": lambda d: len(d["samples"]["observe_ms"]),
}

TRACED = {
    "util.pool.worker_share": value("util.pool.worker_share"),
    "trace_overhead_frac": value("trace_overhead_frac"),
}

LAYER_SOURCES = {
    "paper_flow": dict(TRACED, **{
        name: value(name) for name in (
            "circuit.generate_s", "timing.sta_s", "timing.enumerate_s",
            "timing.paths_enumerated", "core.yield_mc_s", "variation.model_s",
            "core.experiment_s", "linalg.gram_s", "linalg.gram_gflops",
            "core.selector_s", "core.select_s", "core.select.candidates",
            "core.select.rank", "core.mc_s", "core.mc.dies_per_s",
            "core.mc_faulty_s", "core.mc_faulty.dies_per_s",
            "core.mc_faulty.failed_frac")}),
    "service_mix": dict(TRACED, **SERVICE_SOURCES, **{
        "server.build_session_s": value("server.build_session_s"),
        "server.warm_open_us": median("warm_open_us"),
        "core.predict_panel_us_per_die": value("core.predict_panel_us_per_die"),
        "server.batch_mean_size": value("server.batch_mean_size"),
        "server.predict_overhead_us": predict_overhead_us,
        "core.stream.observe_p50_ms": median("core.stream.observe_ms"),
        "core.stream.observe_p99_ms": pct("core.stream.observe_ms", 99.0),
        "core.stream.accepted_frac": value("core.stream.accepted_frac"),
        "core.select.rank": value("core.select.rank"),
    }),
    "pool_1m": dict(TRACED, **{
        name: value(name) for name in (
            "core.shard_s", "core.shard.union_paths", "core.shard.kept_ratio",
            "core.shard.repair_promotions", "core.shard.peak_panel_mib",
            "core.shard.lease_coverage")}),
}


def load_json(path):
    with open(path) as f:
        return json.load(f)


def declared(trace):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    return bench["per_layer" if trace else "end_to_end"]


def metric_sources(workload, trace):
    """{metric name: extractor(runner output)} for every declared metric.
    A per-layer metric the workload does not exercise reads 0."""
    if not trace:
        return E2E_SOURCES
    sources = LAYER_SOURCES[workload]
    return {m["name"]: sources.get(m["name"], lambda d: 0.0)
            for m in declared(True)}


def undeclared_sources():
    names = {m["name"] for m in declared(True)}
    return sorted(n for src in LAYER_SOURCES.values() for n in src
                  if n not in names)


def build():
    """Configures and builds the runner; False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "--target", "perfbench_workloads",
              "-j", jobs]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=800)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step failed: %s" % e)
            return False
        if done.returncode != 0:
            log("build step failed: %s" % " ".join(cmd))
            return False
    return True


def run_workload(args):
    env = dict(os.environ)
    for knob in ("REPRO_FAST", "REPRO_FULL", "REPRO_KERNEL"):
        env.pop(knob, None)
    env["REPRO_THREADS"] = THREADS
    env["REPRO_TELEMETRY"] = "1" if args.trace else "0"
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("workload runner exited with %d" % done.returncode)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(LAYER_SOURCES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    t0 = time.monotonic()
    if not build():
        return 2
    log("build ready in %.1f s" % (time.monotonic() - t0))
    d = run_workload(args)

    attempted, failed = d["attempted"], d["failed"]
    for failure in d["failures"]:
        print("CHECK FAILED %s" % failure)
    units = {m["name"]: m["unit"] for m in declared(bool(args.trace))}
    metrics = {}
    for name, extract in metric_sources(args.workload, bool(args.trace)).items():
        try:
            metrics[name] = {"value": extract(d), "unit": units.get(name, "?")}
        except (KeyError, ValueError, ZeroDivisionError) as e:
            attempted += 1
            failed += 1
            print("METRIC FAILED %s: %r" % (name, e))
    problems = stats.name_mismatches(metrics, declared(bool(args.trace)))
    for p in problems:
        print("NAME MISMATCH %s" % p)

    print("workload %s seed %d trace %d (threads %d)"
          % (args.workload, args.seed, args.trace, d["values"]["threads"]))
    for name, m in metrics.items():
        print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    if args.workload == "service_mix" and not args.trace:
        for name, extract in SERVICE_SOURCES.items():
            print("  %-32s %14.6g" % (name, extract(d)))
    for name, samples in sorted(d["samples"].items()):
        s = stats.summarize(samples)
        if s["tail_p"] is not None:
            print("  %-32s p50 %.6g, p%g %.6g over %d samples"
                  % (name, s["p50"], s["tail_p"], s["tail"], s["count"]))
    print("  %-32s %14.6g ratio (%d of %d operations)"
          % ("failed_frac", stats.failed_share(attempted, failed), failed,
             attempted))

    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
