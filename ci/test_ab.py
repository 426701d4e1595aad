#!/usr/bin/env python3
"""Unit tests for ci/ab.py: the verdict on synthetic pairs, the fail-closed
cases on stand-in benches, and the committed baselines' gate blocks that
ab.py discovers benches by. Run directly or through ctest (test_ab).
"""

import contextlib
import glob
import io
import json
import os
import shutil
import stat
import sys
import tempfile
import unittest
from pathlib import Path

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import ab  # noqa: E402


def pairs(base, change, worse=10):
    """Ten (base, change) pairs: `worse` of them at `change`, the rest tied."""
    return [(base, change if k < worse else base) for k in range(10)]


class VerdictTest(unittest.TestCase):
    def test_unchanged_passes(self):
        self.assertEqual(ab.verdict(pairs(1.0, 1.0), "lower"),
                         (False, 0, 1.0))

    def test_nine_of_ten_worse_by_twelve_percent_fails(self):
        failed, worse, median = ab.verdict(pairs(1.0, 1.12, worse=9), "lower")
        self.assertTrue(failed)
        self.assertEqual(worse, 9)
        self.assertAlmostEqual(median, 1.12)

    def test_eight_of_ten_worse_passes(self):
        self.assertFalse(ab.verdict(pairs(1.0, 1.5, worse=8), "lower")[0])

    def test_ten_of_ten_worse_by_five_percent_passes(self):
        self.assertEqual(ab.verdict(pairs(1.0, 1.05), "lower")[:2],
                         (False, 10))

    def test_decision_round_mean_moving_two_percent_fails(self):
        workload = ab.Workload("popt_n8", [
            {"name": "decision_round_mean", "better": "lower", "bound": 0.01},
            {"name": "decided_per_s", "better": "higher", "bound": 0.25}])
        better, slide = workload.metrics["popt_n8 decision_round_mean"]
        self.assertEqual(slide, 0.01)
        self.assertEqual(workload.metrics["popt_n8 decided_per_s"][1],
                         ab.MAX_SLIDE)
        self.assertTrue(ab.verdict(pairs(2.0, 2.04), better, slide)[0])

    def test_higher_is_better_drop_fails(self):
        self.assertTrue(ab.verdict(pairs(100.0, 80.0), "higher")[0])
        self.assertFalse(ab.verdict(pairs(100.0, 120.0), "higher")[0])

    def test_lower_is_better_gain_passes(self):
        failed, worse, median = ab.verdict(pairs(1.0, 0.5), "lower")
        self.assertEqual((failed, worse), (False, 0))
        self.assertAlmostEqual(median, 0.5)


class FakeSides(unittest.TestCase):
    """Two stand-in checkouts whose benches are shell scripts."""

    def setUp(self):
        tmp = tempfile.TemporaryDirectory(prefix="ab-test-")
        self.addCleanup(tmp.cleanup)
        self.tmp = Path(tmp.name)
        self.base = ab.Side("base", self.tmp / "base", self.tmp / "base/bin")
        self.change = ab.Side("change", self.tmp / "change",
                              self.tmp / "change/bin")
        for side in (self.base, self.change):
            side.bindir.mkdir(parents=True)

    def script(self, path, body):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("#!/bin/sh\n" + body + "\n")
        path.chmod(path.stat().st_mode | stat.S_IXUSR)

    def bench(self, side, report, rc=0):
        self.script(side.bindir / "bench_go",
                    f"cat <<'EOF'\n{report}\nEOF\nexit {rc}")

    def e2e(self, side, report):
        # ab.py starts run.py with its own interpreter.
        path = side.root / "e2ebench" / "run.py"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(f"print({report!r})\n")

    def assert_fails_closed(self, unit, side, *needles):
        with self.assertRaises(ab.Failure) as caught:
            unit.measure(side)
        for needle in needles:
            self.assertIn(needle, str(caught.exception))

    def pair(self, units):
        with contextlib.redirect_stdout(io.StringIO()):
            samples, errors = ab.run_pairs(units, self.base, self.change,
                                           log=lambda *_: None)
            return ab.judge(units, samples, errors, log=lambda *_: None)


GO = ab.Bench("go", {"metric": "headline.seconds", "better": "lower"})


def go_report(seconds):
    return json.dumps({"headline": {"seconds": seconds},
                       "gate": {"metric": "headline.seconds",
                                "better": "lower"}})


class FailClosedTest(FakeSides):
    def test_headline_is_read_from_the_bench_stdout(self):
        self.bench(self.base, go_report(0.25))
        self.assertEqual(GO.measure(self.base),
                         {"BENCH_go.json headline.seconds": 0.25})

    def test_missing_binary_fails(self):
        self.assert_fails_closed(GO, self.base, "no binary", "bench_go")

    def test_missing_headline_fails(self):
        self.bench(self.base, json.dumps({"headline": {}}))
        self.assert_fails_closed(GO, self.base, "headline.seconds", "None")

    def test_non_finite_headline_fails(self):
        self.bench(self.base, go_report(float("nan")))
        self.assert_fails_closed(GO, self.base, "nan")
        self.bench(self.base, go_report(float("inf")))
        self.assert_fails_closed(GO, self.base, "inf")

    def test_zero_headline_fails(self):
        self.bench(self.base, go_report(0.0))
        self.assert_fails_closed(GO, self.base, "not a finite positive")

    def test_nonzero_exit_fails(self):
        self.bench(self.change, go_report(0.25), rc=3)
        self.assert_fails_closed(GO, self.change, "change", "exited 3")

    def test_correct_false_fails(self):
        workload = ab.Workload("popt_n8", [
            {"name": "decided_per_s", "better": "higher", "bound": 0.25}])
        metrics = {"decided_per_s": {"value": 1000.0, "unit": "1/s"}}
        self.e2e(self.base, json.dumps({"correct": True, "metrics": metrics}))
        self.assertEqual(workload.measure(self.base),
                         {"popt_n8 decided_per_s": 1000.0})
        self.e2e(self.base, json.dumps({"correct": False,
                                        "metrics": metrics}))
        self.assert_fails_closed(workload, self.base, '"correct": false')

    def test_missing_perf_row_fails(self):
        # Three repetitions and their mean: the least repetition is kept.
        report = {"benchmarks": [
            {"name": "BM_GraphMerge/8", "run_type": "iteration",
             "cpu_time": cpu, "time_unit": "us"} for cpu in (2.0, 1.5, 3.0)
        ] + [{"name": "BM_GraphMerge/8_mean", "run_type": "aggregate",
              "cpu_time": 2.2, "time_unit": "us"}]}
        self.script(self.base.bindir / "bench_perf",
                    f"echo '{json.dumps(report)}'")
        self.assert_fails_closed(ab.Perf("BM_GraphMerge/16"), self.base,
                                 "BM_GraphMerge/16")
        self.assertEqual(ab.Perf("BM_GraphMerge/8").measure(self.base),
                         {"BM_GraphMerge/8": 1500.0})

    def test_a_failing_side_fails_the_gate(self):
        self.bench(self.base, go_report(0.25))
        self.bench(self.change, go_report(0.25), rc=1)
        failures = self.pair([GO])
        self.assertEqual(len(failures), 1)
        self.assertIn("bench_go: change: bench_go exited 1", failures[0])


class PairingTest(FakeSides):
    def test_sides_alternate_and_equal_sides_pass(self):
        log = self.tmp / "order"
        for side in (self.base, self.change):
            self.script(side.bindir / "bench_go",
                        f"echo {side.name} >> {log}\n"
                        f"echo '{go_report(0.25)}'")
        self.assertEqual(self.pair([GO]), [])
        order = log.read_text().split()
        self.assertEqual(order[:4], ["base", "change", "change", "base"])
        self.assertEqual(len(order), 2 * ab.PAIRS)

    def test_slower_change_fails_naming_the_metric(self):
        self.bench(self.base, go_report(0.25))
        self.bench(self.change, go_report(0.30))
        failures = self.pair([GO])
        self.assertEqual(len(failures), 1)
        self.assertIn("BENCH_go.json headline.seconds: worse in 10/10 pairs",
                      failures[0])


class DiagnoseTest(FakeSides):
    def test_names_the_layer_that_moved_most(self):
        def report(infer_us):
            return json.dumps({"correct": True, "metrics": {
                "action.infer_us_per_round": {"value": infer_us},
                "bus.exchange_us_per_round": {"value": 5.0},
                "store.intent_us_per_round": {"value": 0.0}}})
        self.e2e(self.base, report(10.0))
        self.e2e(self.change, report(13.0))
        per_layer = {"action.infer_us_per_round": "lower",
                     "bus.exchange_us_per_round": "lower",
                     "store.intent_us_per_round": "lower"}
        workload = ab.Workload("popt_n32", [])
        self.assertEqual(ab.diagnose(workload, per_layer, self.base,
                                     self.change, log=lambda *_: None),
                         "action.infer_us_per_round")


class CommittedBaselinesTest(unittest.TestCase):
    def test_every_committed_baseline_but_perf_declares_a_gate(self):
        # ab.py finds the benches it pairs through these gate blocks; a
        # report without one (a text blob, say) would never be paired.
        for path in glob.glob(os.path.join(REPO, "BENCH_*.json")):
            name = os.path.basename(path)
            if name == "BENCH_perf.json":
                continue
            with open(path) as fh:
                gate = json.load(fh).get("gate")
            self.assertIsNotNone(gate, f"{name} declares no gate")
            self.assertIn(gate.get("better"), ("lower", "higher"), name)
            self.assertIsInstance(gate.get("metric"), str, name)

    def test_discovery_pairs_every_gated_bench_but_scale(self):
        units, unpaired, per_layer = ab.discover(Path(REPO))
        labels = [unit.label for unit in units]
        self.assertIn("bench_go", labels)
        self.assertNotIn("bench_scale", labels)
        self.assertIn(("BENCH_scale.json", ab.UNPAIRED["scale"]), unpaired)
        self.assertEqual([u.label for u in units if isinstance(u, ab.Perf)],
                         ab.GATED)
        with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        for workload in spec["workloads"]:
            self.assertIn(workload["name"], labels)
        self.assertEqual(set(per_layer),
                         {m["name"] for m in spec["per_layer"]})

    def test_a_changed_gate_leaves_the_bench_unpaired(self):
        # The base has bench_paper as here, bench_go with another headline
        # and no other bench.
        with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
            base = Path(tmp)
            (base / "bench").mkdir()
            for name in ("BENCHMARK.json", "BENCH_paper.json"):
                shutil.copy(os.path.join(REPO, name), base)
            (base / "BENCH_go.json").write_text(json.dumps({"gate": {
                "metric": "headline.old_seconds", "better": "lower"}}))
            for name in ("go", "paper"):
                (base / "bench" / f"bench_{name}.cpp").touch()
            units, unpaired, _ = ab.discover(base)
        labels = [unit.label for unit in units]
        self.assertIn("bench_paper", labels)
        self.assertNotIn("bench_go", labels)
        reasons = dict(unpaired)
        self.assertIn("gate changed", reasons["BENCH_go.json"])
        self.assertIn("headline.old_seconds", reasons["BENCH_go.json"])
        self.assertEqual(reasons["BENCH_zoo.json"], "new in the change")


if __name__ == "__main__":
    unittest.main()
