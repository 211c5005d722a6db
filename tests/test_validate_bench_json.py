#!/usr/bin/env python3
"""Runs tools/validate_bench_json.py on each fixture record under
tests/bench_json_fixtures and checks its exit status and failure reason.

Usage: test_validate_bench_json.py <validator> <fixture-dir>
"""
import os
import subprocess
import sys

# (fixture, expected exit status, text the validator must print)
CASES = (
    ("pass.json", 0, "1 record(s) valid"),
    ("gate_violated.json", 1, "gate failed: miss_rate"),
    ("ok_false.json", 1, "ok is False"),
    ("gate_absent_metric.json", 1, "gate on absent metric 'total_missed'"),
)


def main(argv):
    validator, fixtures = argv[1], argv[2]
    failures = 0
    for name, status, text in CASES:
        run = subprocess.run(
            [sys.executable, validator, os.path.join(fixtures, name)],
            capture_output=True, text=True, check=False)
        output = run.stdout + run.stderr
        if run.returncode != status or text not in output:
            failures += 1
            print(f"FAIL {name}: exit {run.returncode} (want {status}), "
                  f"output:\n{output}")
        else:
            print(f"ok   {name}: exit {status}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
