#!/usr/bin/env python3
"""Paired perf gate: a change against its parent, on the same machine.

    python3 ci/ab.py --base REF

Checks REF out in a git worktree under build/ab-base and builds the benches
on both sides in Release (the change into build/ab-change, the base into
build/ab-base/build). Then it runs base and change in PAIRS pairs, each pair
alternating which side goes first, and measures:

  * every bench whose committed BENCH_<name>.json declares a "gate" (except
    the UNPAIRED ones): that headline, read from the bench's JSON stdout;
  * bench_perf's GATED rows, each run alone, the two sides back to back:
    a row's least cpu time over PERF_REPETITIONS repetitions;
  * every BENCHMARK.json workload, each side through its own checkout's
    e2ebench/run.py --workload W --seconds 3 --trace 0: every end_to_end
    metric.

A metric fails when the change is worse in at least WORSE_PAIRS of the PAIRS
pairs (ties count for neither side) and its median per-pair cost ratio is
worse than 1 + MAX_SLIDE; an end_to_end metric whose BENCHMARK.json bound is
tighter (decision_round_mean's 1%) uses that bound. When a workload fails,
TRACED_PAIRS traced pairs of it rank the per_layer metrics by median cost
ratio and name the one that moved most.

The gate fails closed: a bench with no binary, a bench that exits nonzero on
either side, a headline that is missing, non-finite or not positive, and an
e2ebench run reporting "correct": false each fail it. A bench or workload
the base does not have at all is new in the change, and a bench whose
committed gate block differs from the base's (another headline, or another
"better") is a redefined headline: either is listed as unpaired, not
failed, for that one change. A GATED row joins the list one change after
its benchmark lands.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

PAIRS = 10
WORSE_PAIRS = 9
MAX_SLIDE = 0.10
TRACED_PAIRS = 3
E2E_SECONDS = 3
# 0.3 s per row, as three 0.1 s repetitions whose least cpu time is kept: a
# single 0.3 s run of a row swings up to 1.7x between processes on a shared
# host, and one slow spell in three repetitions is dropped.
PERF_MIN_TIME = "0.1"
PERF_REPETITIONS = 3

# bench_perf rows the gate pairs. Names must match google-benchmark's "name".
GATED = [
    "BM_GraphMerge/8",
    "BM_GraphMerge/16",
    "BM_GraphMerge/32",
    "BM_ConeConstruction/8",
    "BM_ConeConstruction/16",
    "BM_ConeConstruction/32",
    "BM_ExtractView/8",
    "BM_ExtractView/16",
    "BM_ExtractView/32",
    "BM_CommonTest/8",
    "BM_CommonTest/16",
    "BM_CommonTest/32",
    "BM_POptAction/8",
    "BM_POptAction/32",
    "BM_BroadcastDeltaFip/8",
    "BM_BroadcastDeltaFip/32",
    "BM_GraphSerialize/32",
    "BM_GraphDeserialize/32",
    "BM_FullRunPOpt/8",
    "BM_FullRunPOpt/16",
    "BM_FullRunPOpt/24",
    "BM_FullRunPOpt/32",
]

# Gated benches left out of the pairs, with the reason.
UNPAIRED = {
    "scale": "one run takes ~40 s and ~6.8 GiB; it keeps its own >= 5x "
             "relabel-vs-resimulate floor (ROADMAP item 4)",
}

TIME_UNITS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


class Failure(Exception):
    """A measurement the gate cannot trust; it fails closed on it."""


# --- the verdict -------------------------------------------------------------

def cost_ratio(base, change, better):
    """How much worse the change is than the base: above 1 is worse."""
    return change / base if better == "lower" else base / change


def verdict(pairs, better, slide=MAX_SLIDE):
    """Judges one metric's (base, change) pairs.

    Returns (failed, pairs the change lost, median cost ratio)."""
    ratios = [cost_ratio(base, change, better) for base, change in pairs]
    worse = sum(ratio > 1 for ratio in ratios)
    median = statistics.median(ratios)
    return worse >= WORSE_PAIRS and median > 1 + slide, worse, median


# --- running one side --------------------------------------------------------

class Side:
    """One checkout: its source root and the directory its benches built to."""

    def __init__(self, name, root, bindir):
        self.name, self.root, self.bindir = name, Path(root), Path(bindir)

    def binary(self, name):
        path = self.bindir / name
        if not path.is_file():
            raise Failure(f"{self.name}: no binary {path}")
        return path

    def run(self, cmd, what, **kwargs):
        """Runs cmd; returns its stdout, or fails when it exits nonzero."""
        proc = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, **kwargs)
        if proc.returncode != 0:
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            raise Failure(f"{self.name}: {what} exited {proc.returncode}: "
                          f"{tail}")
        return proc.stdout


def parse(text, what):
    try:
        return json.loads(text)
    except ValueError as err:
        raise Failure(f"{what}: unreadable JSON ({err})")


def positive(value, what):
    """value as a float, or a Failure unless it is a finite positive number."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or value <= 0):
        raise Failure(f"{what} is {value!r}, not a finite positive number")
    return float(value)


class Bench:
    """A native-JSON bench whose committed baseline declares a gate."""

    def __init__(self, name, gate):
        self.label = self.target = f"bench_{name}"
        self.headline = gate["metric"]
        self.key = f"BENCH_{name}.json {self.headline}"
        self.metrics = {self.key: (gate["better"], MAX_SLIDE)}

    def measure(self, side):
        out = side.run([side.binary(self.target)], self.target)
        value = parse(out, f"{side.name} {self.label}")
        for key in self.headline.split("."):
            value = value.get(key) if isinstance(value, dict) else None
        return {self.key: positive(value, f"{side.name} {self.key}")}


class Perf:
    """One of bench_perf's gated rows, run alone in one process per side, so
    the two sides of a pair read it seconds apart."""

    target = "bench_perf"

    def __init__(self, row):
        self.label = row
        self.metrics = {row: ("lower", MAX_SLIDE)}

    def measure(self, side):
        out = side.run([side.binary(self.target),
                        f"--benchmark_filter=^{re.escape(self.label)}$",
                        f"--benchmark_min_time={PERF_MIN_TIME}",
                        f"--benchmark_repetitions={PERF_REPETITIONS}",
                        "--benchmark_format=json"], self.target)
        times = [row["cpu_time"] * TIME_UNITS[row["time_unit"]]
                 for row in parse(out, f"{side.name} {self.target}")
                 .get("benchmarks", [])
                 if row.get("name") == self.label
                 and row.get("run_type", "iteration") == "iteration"]
        return {self.label: positive(min(times, default=None),
                                     f"{side.name} {self.label} cpu_time")}


class Workload:
    """One BENCHMARK.json workload, run through the side's own run.py."""

    target = None  # run.py builds its own driver

    def __init__(self, name, end_to_end):
        self.name = self.label = name
        self.metrics = {f"{name} {m['name']}":
                        (m["better"], min(MAX_SLIDE, m["bound"]))
                        for m in end_to_end}

    def run(self, side, trace):
        # Without CARGO_TARGET_DIR each run.py builds into its own checkout.
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        what = f"e2ebench {self.name} (trace {trace})"
        out = side.run([sys.executable, side.root / "e2ebench" / "run.py",
                        "--workload", self.name, "--seconds", E2E_SECONDS,
                        "--trace", trace], what, cwd=side.root, env=env)
        lines = out.strip().splitlines()
        report = parse(lines[-1] if lines else "", f"{side.name} {what}")
        if report.get("correct") is not True:
            raise Failure(f'{side.name} {what}: reports "correct": '
                          f'{json.dumps(report.get("correct"))}')
        return {name: m.get("value")
                for name, m in report.get("metrics", {}).items()}

    def measure(self, side):
        values = self.run(side, 0)
        return {key: positive(values.get(key.split(" ", 1)[1]),
                              f"{side.name} {key}")
                for key in self.metrics}


# --- pairing and judging -----------------------------------------------------

def run_pairs(units, base, change, pairs=PAIRS, log=print):
    """Measures every unit in `pairs` alternating pairs.

    Returns ({metric: [(base, change), ...]}, {unit label: failure})."""
    samples = {key: [] for unit in units for key in unit.metrics}
    errors = {}
    start = time.monotonic()
    for i in range(pairs):
        order = (base, change) if i % 2 == 0 else (change, base)
        for unit in units:
            if unit.label in errors:
                continue
            try:
                got = {side.name: unit.measure(side) for side in order}
            except Failure as err:
                errors[unit.label] = str(err)
                continue
            for key in unit.metrics:
                samples[key].append((got["base"][key], got["change"][key]))
        log(f"pair {i + 1}/{pairs} done, {time.monotonic() - start:.0f} s")
    return samples, errors


def judge(units, samples, errors, log=print):
    """Prints one line per metric; returns the failures."""
    failures = []
    log(f"\n{'metric':<52} {'pairs':>5} {'worse':>5} {'median':>8} "
        f"{'limit':>6}  (cost ratio change/base, above 1 = worse)")
    for unit in units:
        if unit.label in errors:
            failures.append(f"{unit.label}: {errors[unit.label]}")
            log(f"{unit.label:<52} FAILED CLOSED: {errors[unit.label]}")
            continue
        for key, (better, slide) in unit.metrics.items():
            failed, worse, median = verdict(samples[key], better, slide)
            log(f"{key:<52} {len(samples[key]):>5} {worse:>5} {median:>7.3f}x "
                f"{1 + slide:>5.2f}x{'  <-- REGRESSION' if failed else ''}")
            if failed:
                failures.append(f"{key}: worse in {worse}/{len(samples[key])} "
                                f"pairs, median {median:.3f}x > "
                                f"{1 + slide:.2f}x")
    return failures


def diagnose(workload, per_layer, base, change, log=print):
    """Runs traced pairs of a failed workload; returns the layer that moved
    most, or None."""
    ratios = {}
    for i in range(TRACED_PAIRS):
        order = (base, change) if i % 2 == 0 else (change, base)
        try:
            got = {side.name: workload.run(side, 1) for side in order}
        except Failure as err:
            log(f"  traced pair {i + 1} failed: {err}")
            return None
        for name, better in per_layer.items():
            b, c = got["base"].get(name), got["change"].get(name)
            if all(isinstance(v, (int, float)) and math.isfinite(v) and v > 0
                   for v in (b, c)):
                ratios.setdefault(name, []).append(cost_ratio(b, c, better))
    ranked = sorted(((statistics.median(r), name) for name, r in ratios.items()),
                    reverse=True)
    log(f"\n{workload.name}: per-layer median cost ratio over "
        f"{TRACED_PAIRS} traced pairs")
    for median, name in ranked:
        log(f"  {name:<40} {median:7.3f}x")
    if not ranked:
        return None
    log(f"{workload.name}: the layer that moved most is {ranked[0][1]}")
    return ranked[0][1]


# --- setup -------------------------------------------------------------------

def git(*args, cwd=REPO):
    return subprocess.run(["git", *map(str, args)], cwd=cwd, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def checkout_base(ref):
    """Checks ref out (detached) in the build/ab-base worktree."""
    sha = git("rev-parse", "--verify", f"{ref}^{{commit}}")
    path = REPO / "build" / "ab-base"
    git("worktree", "prune")
    if (path / ".git").exists():
        git("checkout", "--force", "--detach", sha, cwd=path)
    else:
        git("worktree", "add", "--detach", path, sha)
    return path


def build(side, targets):
    for cmd in (["cmake", "-S", side.root, "-B", side.bindir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", side.bindir, "-j", os.cpu_count() or 2,
                 "--target", *targets]):
        if subprocess.run([str(c) for c in cmd],
                          stdout=sys.stderr.fileno()).returncode != 0:
            raise Failure(f"{side.name}: build failed: "
                          f"{' '.join(map(str, cmd))}")


def discover(base_root):
    """The units to pair, and the (name, reason) of those left unpaired."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    base_spec = json.loads((base_root / "BENCHMARK.json").read_text())
    base_workloads = {w["name"] for w in base_spec["workloads"]}
    units, unpaired = [], []
    for path in sorted(REPO.glob("BENCH_*.json")):
        name = path.stem[len("BENCH_"):]
        gate = json.loads(path.read_text()).get("gate")
        if gate is None:
            continue
        base_path = base_root / path.name
        was = (json.loads(base_path.read_text()).get("gate")
               if base_path.is_file() else None)
        if name in UNPAIRED:
            unpaired.append((path.name, UNPAIRED[name]))
        elif not (base_root / "bench" / f"bench_{name}.cpp").is_file():
            unpaired.append((path.name, "new in the change"))
        elif was != gate:
            unpaired.append((path.name,
                             f"gate changed: the base gates {json.dumps(was)}"))
        else:
            units.append(Bench(name, gate))
    units.extend(Perf(row) for row in GATED)
    for w in spec["workloads"]:
        if w["name"] in base_workloads:
            units.append(Workload(w["name"], spec["end_to_end"]))
        else:
            unpaired.append((w["name"], "new in the change"))
    per_layer = {m["name"]: m["better"] for m in spec["per_layer"]}
    return units, unpaired, per_layer


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--base", required=True,
                        help="the commit to pair the working tree against")
    args = parser.parse_args(argv)
    start = time.monotonic()

    try:
        base_root = checkout_base(args.base)
    except subprocess.CalledProcessError as err:
        print(f"ab.py: cannot check out {args.base}: {err}", file=sys.stderr)
        return 1
    base = Side("base", base_root, base_root / "build")
    change = Side("change", REPO, REPO / "build" / "ab-change")
    units, unpaired, per_layer = discover(base_root)
    for name, reason in unpaired:
        print(f"unpaired: {name}: {reason}")

    targets = sorted({unit.target for unit in units} - {None})
    try:
        for side in (base, change):
            build(side, targets)
    except Failure as err:
        failures = [str(err)]
    else:
        samples, errors = run_pairs(units, base, change)
        failures = judge(units, samples, errors)
        for unit in units:
            if isinstance(unit, Workload) and unit.label not in errors and any(
                    verdict(samples[key], *judged)[0]
                    for key, judged in unit.metrics.items()):
                diagnose(unit, per_layer, base, change)

    print(f"\nab.py: {time.monotonic() - start:.0f} s wall")
    if failures:
        print("\nPaired perf gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("Paired perf gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
