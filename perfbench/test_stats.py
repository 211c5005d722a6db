"""Self-tests of the benchmark's statistics and of BENCHMARK.json / layers.json
consistency.  Run: python3 perfbench/test_stats.py"""

import json
import os
import unittest

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class PercentileRule(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(9999), 99.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertIsNone(stats.tail_percentile(19))
        self.assertIsNone(stats.tail_percentile(0))

    def test_nearest_rank(self):
        values = list(range(1, 1001))  # 1..1000
        self.assertEqual(stats.percentile(values, 50), 500)
        self.assertEqual(stats.percentile(values, 99), 990)
        self.assertEqual(stats.percentile(values, 100), 1000)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)
        # Ten samples lie strictly beyond the p99 of 1000 samples.
        p99 = stats.percentile(values, 99)
        self.assertEqual(sum(v > p99 for v in values), 10)

    def test_order_does_not_matter(self):
        values = [5, 1, 4, 2, 3] * 10
        self.assertEqual(stats.percentile(values, 90),
                         stats.percentile(sorted(values), 90))

    def test_summary_reports_count(self):
        s = stats.summarize([float(v) for v in range(200)])
        self.assertEqual(s["count"], 200)
        self.assertEqual(s["tail_p"], 95.0)
        self.assertEqual(s["tail"], 189.0)
        self.assertEqual(s["p50"], 99.5)

    def test_p99_refused_without_support(self):
        with self.assertRaises(ValueError):
            stats.percentile_metric(list(range(999)), 99)
        self.assertEqual(stats.percentile_metric(list(range(1000)), 99), 989)

    def test_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 0)


class FailureShare(unittest.TestCase):
    def test_share(self):
        self.assertEqual(stats.failed_share(1000, 0), 0.0)
        self.assertEqual(stats.failed_share(8, 2), 0.25)
        self.assertEqual(stats.failed_share(3, 3), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            stats.failed_share(0, 0)
        with self.assertRaises(ValueError):
            stats.failed_share(5, 6)
        with self.assertRaises(ValueError):
            stats.failed_share(5, -1)
        with self.assertRaises(TypeError):
            stats.failed_share(5.0, 1)


class DeclaredNames(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        with open(os.path.join(HERE, "layers.json")) as f:
            cls.layers = json.load(f)

    def test_mismatch_detection(self):
        declared = [{"name": "a_s", "unit": "s"}, {"name": "b", "unit": "ms"}]
        ok = {"a_s": {"value": 1.0, "unit": "s"}, "b": {"value": 2, "unit": "ms"}}
        self.assertEqual(stats.name_mismatches(ok, declared), [])
        bad = {"a_s": {"value": 1.0, "unit": "ms"}, "c": {"value": 1, "unit": "s"}}
        self.assertEqual(stats.name_mismatches(bad, declared), [
            "missing metric b", "undeclared metric c",
            "metric a_s has unit ms, declared s"])

    def test_layer_map_matches_benchmark_json(self):
        per_layer = {m["name"]: m for m in self.bench["per_layer"]}
        end_to_end = {m["name"] for m in self.bench["end_to_end"]}
        workloads = {w["name"] for w in self.bench["workloads"]}
        self.assertEqual(set(self.layers["per_layer"]), set(per_layer))
        for name, row in self.layers["per_layer"].items():
            self.assertEqual(row["unit"], per_layer[name]["unit"], name)
            self.assertLessEqual(set(row["moves"]), end_to_end, name)
            self.assertLessEqual(set(row["heavy_in"]), workloads, name)
        self.assertEqual(set(self.layers["end_to_end"]), end_to_end)
        for name, row in self.layers["end_to_end"].items():
            self.assertEqual(set(row), workloads, name)

    def test_run_prints_declared_metrics(self):
        import run
        self.assertEqual(run.undeclared_sources(), [])
        self.assertEqual(set(run.LAYER_SOURCES),
                         {w["name"] for w in self.bench["workloads"]})
        for workload in run.LAYER_SOURCES:
            for trace in (False, True):
                names = run.metric_sources(workload, trace)
                declared = self.bench["per_layer" if trace else "end_to_end"]
                self.assertEqual(set(names), {m["name"] for m in declared},
                                 (workload, trace))

    def test_bounds_within_contract(self):
        for m in self.bench["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25, m["name"])
        setup = [m for m in self.bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.bench["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
