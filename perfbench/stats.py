"""Statistics of the repository benchmark: percentiles, failure shares and the
check that printed metric names match BENCHMARK.json.

Run the self-tests with `python3 perfbench/test_stats.py`.
"""

import math
import statistics

# Percentiles a timing may be reported at, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values, p):
    """Nearest-rank percentile p (0 < p <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError("percentile out of range: %r" % p)
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail_percentile(count):
    """Highest ladder percentile with at least MIN_TAIL_SAMPLES samples
    beyond it in a sample of `count`, or None when even the median lacks
    them."""
    for p in PERCENTILE_LADDER:
        if count * (100.0 - p) / 100.0 >= MIN_TAIL_SAMPLES - 1e-9:
            return p
    return None


def summarize(values):
    """Median, the highest supported tail percentile and the sample count."""
    tail = tail_percentile(len(values))
    return {
        "count": len(values),
        "p50": statistics.median(values) if values else None,
        "tail_p": tail,
        "tail": percentile(values, tail) if tail is not None else None,
    }


def percentile_metric(values, p):
    """Percentile p of `values`; raises ValueError unless the sample has at
    least MIN_TAIL_SAMPLES beyond it (a p99 needs 1000 samples)."""
    tail = tail_percentile(len(values))
    if tail is None or tail < p:
        raise ValueError("p%g needs %d samples beyond it; have %d samples"
                         % (p, MIN_TAIL_SAMPLES, len(values)))
    return percentile(values, p)


def failed_share(attempted, failed):
    """Share of attempted operations that failed or were wrong."""
    if not isinstance(attempted, int) or not isinstance(failed, int):
        raise TypeError("operation counts must be whole numbers")
    if attempted < 1:
        raise ValueError("nothing was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed count %d outside [0, %d]" % (failed, attempted))
    return failed / attempted


def name_mismatches(metrics, declared):
    """Differences between printed metrics ({name: {"value", "unit"}}) and the
    declared list ([{"name", "unit", ...}]); empty when they agree."""
    problems = []
    units = {m["name"]: m["unit"] for m in declared}
    for name in sorted(set(units) - set(metrics)):
        problems.append("missing metric %s" % name)
    for name in sorted(set(metrics) - set(units)):
        problems.append("undeclared metric %s" % name)
    for name in sorted(set(units) & set(metrics)):
        if metrics[name]["unit"] != units[name]:
            problems.append("metric %s has unit %s, declared %s"
                            % (name, metrics[name]["unit"], units[name]))
    return problems
