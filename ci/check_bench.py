#!/usr/bin/env python3
"""Perf regression gate for the committed BENCH_*.json baselines.

Every native-JSON bench checks its own correctness bits and exits nonzero on
any failure, so by the time this gate runs those bits already held. What is
left is the one thing a bench cannot judge from its own run: whether its
headline slid against the committed baseline. Each such bench prints

  "gate": {"metric": "<dotted path>", "better": "lower"|"higher"}

naming its headline. This checker has two parts:

  * bench_perf — the google-benchmark report; every GATED BM_* row present
    in the baseline must be present in the fresh report and within
    MAX_RATIO in cpu time, and at least one row must be comparable.
  * every baseline in --baseline-dir that declares a gate — the fresh
    report of the same name must exist, declare the same gate, and hold a
    finite, positive headline within MAX_RATIO of the baseline's.

Both fail closed: a bench that did not run leaves no fresh file, and a
missing file fails the gate. So the fresh reports must go to their own
directory, never over the committed baselines; a --fresh-dir that is the
baseline directory fails outright.

The ratio is deliberately coarse (2x): the committed baseline and a CI runner
are different machines, so the gate catches algorithmic regressions, not
few-percent noise. Same-machine floors (the synthesis and relabel 5x
speedups, worker scaling) live in the benches themselves. Refresh the
committed baselines (cmake --build build --target bench_all) whenever a PR
intentionally changes these numbers.

Usage:
  cmake -DBENCH_BIN_DIR=$PWD/build -DREPO_ROOT=$PWD/fresh \\
      -P ci/run_benches.cmake
  ci/check_bench.py --baseline-dir . --fresh-dir fresh
"""

import argparse
import json
import math
import os
import sys

MAX_RATIO = 2.0

# Benchmarks whose regression fails the gate. Names must match the
# google-benchmark "name" field exactly.
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


def load(path, failures):
    """Returns the parsed report at path, or None after recording why not."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        failures.append(f"{os.path.basename(path)}: unreadable ({err})")
        return None


def load_times(report):
    times = {}
    for bench in report.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue
        times[bench["name"]] = (float(bench["cpu_time"]), bench["time_unit"])
    return times


def check_perf(baseline_dir, fresh_dir, failures):
    """Gates bench_perf's GATED rows."""
    baseline = load(os.path.join(baseline_dir, "BENCH_perf.json"), failures)
    fresh = load(os.path.join(fresh_dir, "BENCH_perf.json"), failures)
    if baseline is None or fresh is None:
        return
    baseline, fresh = load_times(baseline), load_times(fresh)

    compared = 0
    print(f"{'benchmark':<32} {'baseline':>12} {'fresh':>12} {'ratio':>8}")
    for name in GATED:
        if name not in baseline:
            print(f"{name:<32} {'(no baseline — skipped)':>34}")
            continue
        if name not in fresh:
            failures.append(f"{name}: missing from fresh report")
            continue
        base_t, base_u = baseline[name]
        fresh_t, fresh_u = fresh[name]
        if base_u != fresh_u:
            failures.append(f"{name}: unit mismatch {base_u} vs {fresh_u}")
            continue
        compared += 1
        ratio = fresh_t / base_t if base_t > 0 else float("inf")
        flag = " <-- REGRESSION" if ratio > MAX_RATIO else ""
        print(f"{name:<32} {base_t:>10.1f}{base_u:>2} "
              f"{fresh_t:>10.1f}{fresh_u:>2} {ratio:>7.2f}x{flag}")
        if ratio > MAX_RATIO:
            failures.append(
                f"{name}: {fresh_t:.1f}{fresh_u} vs baseline "
                f"{base_t:.1f}{base_u} ({ratio:.2f}x > {MAX_RATIO}x)")

    # Fail closed: if nothing was comparable (renamed benchmarks, stale or
    # truncated baseline), a green result would be meaningless.
    if compared == 0:
        failures.append("BENCH_perf.json: no gated benchmark was present in "
                        "both reports")


def headline(report, metric):
    """The float at a dotted path, or None when absent or not a number."""
    value = report
    for key in metric.split("."):
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def check_gate(name, baseline, fresh_dir, failures):
    """Gates one baseline's headline against its fresh report."""
    gate = baseline["gate"]
    metric, better = gate.get("metric"), gate.get("better")
    if not isinstance(metric, str) or better not in ("lower", "higher"):
        failures.append(f"{name}: baseline gate {gate} is malformed")
        return
    lower = better == "lower"
    fresh_path = os.path.join(fresh_dir, name)
    if not os.path.exists(fresh_path):
        failures.append(f"{name}: no fresh report (did the bench run?)")
        return
    fresh = load(fresh_path, failures)
    if fresh is None:
        return
    fresh_gate = fresh.get("gate") if isinstance(fresh, dict) else None
    if fresh_gate != gate:
        failures.append(f"{name}: fresh gate {fresh_gate} differs from the "
                        f"baseline's {gate}")
        return

    base_value = headline(baseline, metric)
    fresh_value = headline(fresh, metric)
    bad = [f"{name}: {which} {metric} is {value}, not a finite positive "
           f"number"
           for which, value in (("baseline", base_value),
                                ("fresh", fresh_value))
           if value is None or not math.isfinite(value) or value <= 0]
    if bad:
        failures.extend(bad)
        return

    ratio = fresh_value / base_value if lower else base_value / fresh_value
    flag = " <-- REGRESSION" if ratio > MAX_RATIO else ""
    print(f"{name + ' ' + metric:<48} {base_value:>14.6g} "
          f"{fresh_value:>14.6g} {ratio:>7.2f}x{flag}")
    if ratio > MAX_RATIO:
        failures.append(
            f"{name}: {metric} {fresh_value:.6g} vs baseline "
            f"{base_value:.6g} ({ratio:.2f}x "
            f"{'slower' if lower else 'worse'} > {MAX_RATIO}x)")


def check_gates(baseline_dir, fresh_dir, failures):
    """Gates every baseline that declares a gate."""
    gated = 0
    print(f"{'report / headline':<48} {'baseline':>14} {'fresh':>14} "
          f"{'ratio':>8}")
    for name in sorted(os.listdir(baseline_dir)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        baseline = load(os.path.join(baseline_dir, name), failures)
        if isinstance(baseline, dict) and "gate" in baseline:
            gated += 1
            check_gate(name, baseline, fresh_dir, failures)
    if gated == 0:
        failures.append(f"no baseline in {baseline_dir} declares a gate")


def run(baseline_dir, fresh_dir):
    """Runs both parts of the gate; returns the list of failures."""
    if os.path.realpath(baseline_dir) == os.path.realpath(fresh_dir):
        # Every report would pass at 1.00x, whether or not its bench ran.
        return ["--fresh-dir is the baseline directory"]
    failures = []
    check_perf(baseline_dir, fresh_dir, failures)
    print()
    check_gates(baseline_dir, fresh_dir, failures)
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--baseline-dir", required=True,
                        help="directory of the committed BENCH_*.json")
    parser.add_argument("--fresh-dir", required=True,
                        help="directory the fresh BENCH_*.json were written to")
    args = parser.parse_args(argv)

    failures = run(args.baseline_dir, args.fresh_dir)
    if failures:
        print("\nPerf gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nPerf gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
