#!/usr/bin/env python3
"""Unit tests for ci/check_bench.py, run against the committed baselines.

Each case copies the committed BENCH_*.json into a fresh directory, breaks
one thing, and asserts the gate's verdict. Run directly or through ctest
(test_check_bench).
"""

import contextlib
import glob
import io
import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check_bench  # noqa: E402


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self.fresh = tempfile.mkdtemp(prefix="bench-fresh-")
        self.addCleanup(shutil.rmtree, self.fresh)
        for path in glob.glob(os.path.join(REPO, "BENCH_*.json")):
            shutil.copy(path, self.fresh)

    def gate(self, baseline_dir=REPO):
        with contextlib.redirect_stdout(io.StringIO()):
            return check_bench.run(baseline_dir, self.fresh)

    def edit(self, name, change):
        path = os.path.join(self.fresh, name)
        with open(path) as fh:
            report = json.load(fh)
        change(report)
        with open(path, "w") as fh:
            json.dump(report, fh)

    def assert_fails(self, *needles):
        failures = self.gate()
        self.assertTrue(failures, "gate passed")
        text = "\n".join(failures)
        for needle in needles:
            self.assertIn(needle, text)

    def test_identical_copy_passes(self):
        self.assertEqual(self.gate(), [])

    def test_every_committed_native_bench_declares_a_gate(self):
        for name in ("throughput", "synthesis", "go", "adversary", "recovery",
                     "scale", "durability", "zoo"):
            with open(os.path.join(REPO, f"BENCH_{name}.json")) as fh:
                self.assertIn("gate", json.load(fh), name)

    def test_slowed_series_fails_naming_file_and_metric(self):
        def slow(report):
            report["headline"]["seconds"] *= 2.1
        self.edit("BENCH_go.json", slow)
        self.assert_fails("BENCH_go.json", "headline.seconds", "2.10x")

    def test_higher_is_better_series_regression_fails(self):
        def slow(report):
            report["headline"]["decided_per_sec"] /= 2.1
        self.edit("BENCH_throughput.json", slow)
        self.assert_fails("BENCH_throughput.json", "headline.decided_per_sec")

    def test_zero_headline_fails(self):
        def zero(report):
            report["headline"]["seconds"] = 0.0
        self.edit("BENCH_zoo.json", zero)
        self.assert_fails("BENCH_zoo.json", "headline.seconds")

    def test_nan_headline_fails(self):
        def nan(report):
            report["headline"]["seconds"] = float("nan")
        self.edit("BENCH_scale.json", nan)
        self.assert_fails("BENCH_scale.json", "headline.seconds")

    def test_missing_headline_fails(self):
        def drop(report):
            del report["headline"]["traces_per_sec"]
        self.edit("BENCH_recovery.json", drop)
        self.assert_fails("BENCH_recovery.json", "headline.traces_per_sec")

    def test_missing_fresh_file_fails(self):
        os.remove(os.path.join(self.fresh, "BENCH_durability.json"))
        self.assert_fails("BENCH_durability.json", "no fresh report")

    def test_fresh_report_without_gate_fails(self):
        # What `bench_zoo --smoke` prints: the headline, but no gate block.
        def smoke(report):
            del report["gate"]
            report["headline"]["smoke"] = True
        self.edit("BENCH_zoo.json", smoke)
        self.assert_fails("BENCH_zoo.json", "fresh gate None")

    def test_gate_on_another_metric_fails(self):
        def retarget(report):
            report["gate"]["metric"] = "headline.baseline_seconds"
        self.edit("BENCH_synthesis.json", retarget)
        self.assert_fails("BENCH_synthesis.json", "headline.baseline_seconds")

    def test_regressed_perf_row_fails(self):
        def slow(report):
            for bench in report["benchmarks"]:
                if bench["name"] == "BM_FullRunPOpt/32":
                    bench["cpu_time"] *= 2.1
        self.edit("BENCH_perf.json", slow)
        self.assert_fails("BM_FullRunPOpt/32", "2.10x")

    def test_no_comparable_perf_row_fails(self):
        def rename(report):
            for bench in report["benchmarks"]:
                bench["name"] = "Renamed_" + bench["name"]
        baseline = tempfile.mkdtemp(prefix="bench-baseline-")
        self.addCleanup(shutil.rmtree, baseline)
        for path in glob.glob(os.path.join(self.fresh, "BENCH_*.json")):
            shutil.copy(path, baseline)
        self.edit("BENCH_perf.json", rename)
        shutil.copy(os.path.join(self.fresh, "BENCH_perf.json"), baseline)
        failures = self.gate(baseline)
        self.assertIn("no gated benchmark was present in both reports",
                      "\n".join(failures))

    def test_missing_fresh_perf_report_fails(self):
        os.remove(os.path.join(self.fresh, "BENCH_perf.json"))
        self.assert_fails("BENCH_perf.json")

    def test_baseline_dir_without_gates_fails(self):
        empty = tempfile.mkdtemp(prefix="bench-empty-")
        self.addCleanup(shutil.rmtree, empty)
        self.assertIn(f"no baseline in {empty} declares a gate",
                      "\n".join(self.gate(empty)))

    def test_fresh_dir_equal_to_baseline_dir_fails(self):
        self.assertEqual(check_bench.run(REPO, REPO + "/."),
                         ["--fresh-dir is the baseline directory"])

    def test_cli_exit_codes(self):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(check_bench.main(
                ["--baseline-dir", REPO, "--fresh-dir", self.fresh]), 0)
            os.remove(os.path.join(self.fresh, "BENCH_go.json"))
            self.assertEqual(check_bench.main(
                ["--baseline-dir", REPO, "--fresh-dir", self.fresh]), 1)


if __name__ == "__main__":
    unittest.main()
