"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench/tests -v

from the repository root. test_tail_rule builds the benchmark (library
included) on first use and runs its C++ statistics test.
"""

import copy
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402  (perfbench/run.py)

BENCHMARK = run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))


def layer_table():
    """(name, unit) rows of the C++ per-layer table, in output order."""
    with open(os.path.join(run.HERE, "src", "bench.cpp")) as source:
        text = source.read()
    table = text[text.index("layer_table()"):text.index("return table;")]
    return re.findall(r'\{"([A-Za-z0-9_.]+)", "([^"]+)"\}', table)


def end_to_end_rows():
    """(name, unit) rows summarize_end_to_end() emits."""
    with open(os.path.join(run.HERE, "src", "bench.cpp")) as source:
        text = source.read()
    body = text[text.index("report.metrics = {"):]
    body = body[:body.index("};")]
    return re.findall(r'\{"([A-Za-z0-9_.]+)", \{[^"]*"([^"]+)"\}\}', body.replace("\n", " "))


def fake_result(**overrides):
    result = {
        "workload": "certify_sweep", "seed": 1, "trace": 0, "correct": True,
        "attempted": 10, "failed": 0, "digest": "0123456789abcdef",
        "counters": {name: 5 for name in run.COUNTERS},
        "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                    for m in BENCHMARK["end_to_end"]},
        "info": {}, "errors": [],
        "build": {"build_type": "Release", "compiler": "x", "cxx_flags": "-O3"},
    }
    result.update(overrides)
    return result


class TailRuleTest(unittest.TestCase):
    def test_tail_rule(self):
        binary = os.path.join(run.BENCH_BUILD, "perfbench_stats_test")
        if not os.path.exists(binary):
            run.build()
        proc = subprocess.run([binary], stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stdout)


class MetricNamesTest(unittest.TestCase):
    def test_per_layer_table_matches_benchmark_json(self):
        declared = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
        self.assertEqual(layer_table(), declared)

    def test_end_to_end_rows_match_benchmark_json(self):
        declared = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
        self.assertEqual(end_to_end_rows(), declared)

    def test_check_metrics_flags_missing_extra_and_unit(self):
        declared = BENCHMARK["end_to_end"]
        metrics = fake_result()["metrics"]
        self.assertEqual(run.check_metrics(metrics, declared), [])
        missing = copy.deepcopy(metrics)
        del missing["setup_s"]
        self.assertIn("metric setup_s missing", run.check_metrics(missing, declared))
        extra = copy.deepcopy(metrics)
        extra["bogus"] = {"value": 1.0, "unit": "s"}
        self.assertIn("metric bogus is not in BENCHMARK.json", run.check_metrics(extra, declared))
        wrong_unit = copy.deepcopy(metrics)
        wrong_unit["setup_s"]["unit"] = "ms"
        self.assertTrue(any("unit" in e for e in run.check_metrics(wrong_unit, declared)))
        no_value = copy.deepcopy(metrics)
        no_value["setup_s"]["value"] = None
        self.assertTrue(any("no finite value" in e for e in run.check_metrics(no_value, declared)))

    def test_final_line_has_exactly_the_contract_keys(self):
        _, _, line = run.final_line(fake_result(), BENCHMARK["end_to_end"], {})
        self.assertEqual(sorted(line), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(line["correct"])
        for name, metric in line["metrics"].items():
            self.assertEqual(sorted(metric), ["unit", "value"], name)
        json.dumps(line)  # serializable as one line


class DigestCheckTest(unittest.TestCase):
    def expected(self):
        return {"certify_sweep": {"1": {"digest": "0123456789abcdef",
                                        "counters": {n: 5 for n in run.COUNTERS}}}}

    def test_recorded_seed_matches(self):
        errors, recorded = run.check_expected(fake_result(), self.expected())
        self.assertTrue(recorded)
        self.assertEqual(errors, [])

    def test_digest_mismatch_fails_the_run(self):
        result = fake_result(digest="fedcba9876543210")
        errors, _, line = run.final_line(result, BENCHMARK["end_to_end"], self.expected())
        self.assertFalse(line["correct"])
        self.assertTrue(any("digest" in e for e in errors))

    def test_counter_mismatch_fails_the_run(self):
        result = fake_result()
        result["counters"]["core.breakpoints"] = 6
        errors, _, line = run.final_line(result, BENCHMARK["end_to_end"], self.expected())
        self.assertFalse(line["correct"])
        self.assertTrue(any("core.breakpoints" in e for e in errors))

    def test_unrecorded_seed_is_not_checked(self):
        errors, recorded = run.check_expected(fake_result(seed=99), self.expected())
        self.assertFalse(recorded)
        self.assertEqual(errors, [])

    def test_workload_failure_fails_the_run(self):
        result = fake_result(correct=False, errors=["item 3: report differs"])
        _, _, line = run.final_line(result, BENCHMARK["end_to_end"], self.expected())
        self.assertFalse(line["correct"])

    def test_default_seed_is_recorded_for_every_workload(self):
        expected = run.load_json(run.EXPECTED)
        for workload in run.WORKLOADS:
            self.assertIn(str(run.DEFAULT_SEED), expected.get(workload, {}), workload)


if __name__ == "__main__":
    unittest.main()
