#!/usr/bin/env python3
"""Tests for tools/bench_drift.py: python3 tools/bench_drift_test.py"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_drift  # noqa: E402


def multicore(**overrides):
    doc = {
        "benchmark": "bench_multicore",
        "sets_per_core_count": 40,
        "core_counts": 5,
        "items": 200,
        "tolerance": 1,
        "u_per_core": 0.35,
        "items_per_sec": 10.0,
    }
    doc.update(overrides)
    return doc


def gbench(name, cpu_time, real_time):
    return {
        "benchmarks": [
            {
                "name": name,
                "run_type": "iteration",
                "cpu_time": cpu_time,
                "real_time": real_time,
                "time_unit": "ms",
            }
        ]
    }


class BenchDriftTest(unittest.TestCase):
    def run_drift(self, current, reference, *flags):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in (("current.json", current), ("reference.json", reference)):
                paths.append(os.path.join(tmp, name))
                with open(paths[-1], "w", encoding="utf-8") as handle:
                    json.dump(doc, handle)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = bench_drift.main(paths + list(flags))
        return status, out.getvalue()

    def test_flat_same_config_compares_rates(self):
        status, out = self.run_drift(multicore(items_per_sec=9.0), multicore())
        self.assertEqual(status, 0)
        self.assertIn("within", out)

    def test_flat_rate_regression_fails(self):
        status, out = self.run_drift(multicore(items_per_sec=2.0), multicore())
        self.assertEqual(status, 1)
        self.assertIn("REGRESSED", out)

    def test_flat_config_mismatch_is_incomparable(self):
        for key, value in (
            ("sets_per_core_count", 10),
            ("core_counts", 3),
            ("items", 50),
            ("tolerance", 2),
            ("u_per_core", 0.5),
        ):
            with self.subTest(key=key):
                # A faster run still fails: the rates measure different work.
                status, out = self.run_drift(
                    multicore(**{key: value, "items_per_sec": 50.0}), multicore()
                )
                self.assertEqual(status, 1)
                self.assertIn("incomparable", out)
                self.assertIn(key, out)

    def test_real_time_benchmarks_compare_real_time(self):
        name = "BM_CampaignAnalyze/2/real_time"
        # cpu_time tripled (the waiting main thread), real_time unchanged.
        status, _ = self.run_drift(gbench(name, 3.0, 10.0), gbench(name, 1.0, 10.0))
        self.assertEqual(status, 0)
        status, out = self.run_drift(gbench(name, 1.0, 30.0), gbench(name, 1.0, 10.0))
        self.assertEqual(status, 1)
        self.assertIn("REGRESSED", out)

    def test_other_benchmarks_compare_cpu_time(self):
        name = "BM_FusedAnalyze"
        status, _ = self.run_drift(gbench(name, 1.0, 30.0), gbench(name, 1.0, 10.0))
        self.assertEqual(status, 0)
        status, _ = self.run_drift(gbench(name, 3.0, 10.0), gbench(name, 1.0, 10.0))
        self.assertEqual(status, 1)


if __name__ == "__main__":
    unittest.main()
