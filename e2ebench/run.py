#!/usr/bin/env python3
"""End-to-end benchmark of the EBA workload engine: build, run, summarise.

One run (the form BENCHMARK.json's "command" uses):

    python3 e2ebench/run.py --workload popt_n8 --seed 1 --seconds 10 --trace 0

builds bench_e2e from source if needed (CMake, into $CARGO_TARGET_DIR or
.bench_build, under e2ebench/) and runs it; its last stdout line is the
result JSON. Build output goes to stderr.

A summary over every workload:

    python3 e2ebench/run.py --runs 5 [--seed-offset 100] [--trace 0|1]
                            [--out RESULT.json] [--compare BASE.json]
    python3 e2ebench/run.py --smoke

runs one process per (repetition, workload), prints every metric by name
with its unit as median and quartiles, and with --compare applies the
bounds in BENCHMARK.json to the medians of BASE.json (an earlier --out).
A metric whose spread (quartile distance over median) exceeds its bound on
either side, or that has a single run on either side, is reported as
unresolved, not as unchanged. --smoke runs one
batch (one traced pass) per workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
BENCHMARK = REPO / "BENCHMARK.json"


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds bench_e2e; returns the binary path."""
    if not (REPO / "src").is_dir():
        log("run.py: no library sources at", REPO / "src")
        sys.exit(2)
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = REPO / target
    build_dir = target / "e2ebench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "bench_e2e",
                  "-j", "2"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr.fileno(),
                          stderr=sys.stderr.fileno()).returncode != 0:
            log("run.py: build failed:", " ".join(cmd))
            sys.exit(2)
    return build_dir / "bench_e2e"


def bench_args(args, workload, seed=None):
    out = ["--workload", workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if seed is not None:
        out += ["--seed", str(seed)]
    if args.seed_offset:
        out += ["--seed-offset", str(args.seed_offset)]
    if args.smoke:
        out.append("--smoke")
    return out


def run_one(binary, args):
    cmd = [str(binary)] + bench_args(args, args.workload, args.seed)
    if args.trace_out:
        cmd += ["--trace-out", args.trace_out]
    return subprocess.run(cmd).returncode


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def summarise(binary, args, spec):
    """Runs every (repetition, workload); returns {workload: {metric: ...}}."""
    names = [w["name"] for w in spec["workloads"]]
    runs = {name: [] for name in names}
    ok = True
    for rep in range(args.runs):
        for name in names:
            cmd = [str(binary)] + bench_args(args, name)
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if not lines:
                log(f"run.py: {name} printed no result (exit {proc.returncode})")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and proc.returncode == 0 and result["correct"]
            runs[name].append(result)
            log(f"[{rep + 1}/{args.runs}] {name}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}")
    summary = {}
    for name, results in runs.items():
        metrics = {}
        for result in results:
            for metric, m in result["metrics"].items():
                entry = metrics.setdefault(metric, {"unit": m["unit"], "values": []})
                entry["values"].append(m["value"])
        for entry in metrics.values():
            entry["q1"], entry["median"], entry["q3"] = quartiles(entry["values"])
        summary[name] = metrics
        if args.trace == 0 and len(results) > 1:
            rounds = {r["metrics"]["decision_round_mean"]["value"] for r in results}
            if len(rounds) > 1:
                log(f"run.py: {name}: decision_round_mean differs between runs "
                    f"of one seed: {sorted(rounds)}")
                ok = False
    return summary, ok


def print_summary(summary):
    for name, metrics in summary.items():
        print(f"\n{name}")
        print(f"  {'metric':38s} {'unit':8s} {'median':>14s} {'q1':>14s} "
              f"{'q3':>14s} {'spread':>7s}")
        for metric, e in metrics.items():
            print(f"  {metric:38s} {e['unit']:8s} {e['median']:14.6g} "
                  f"{e['q1']:14.6g} {e['q3']:14.6g} "
                  f"{spread(e['values']):7.1%}")


def compare(summary, base, spec):
    """Applies BENCHMARK.json's end-to-end bounds; returns True if no
    metric regressed."""
    ok = True
    print("\ncomparison against base (change > 0 is worse)")
    for name, metrics in summary.items():
        for m in spec["end_to_end"]:
            new = metrics.get(m["name"])
            old = base.get(name, {}).get(m["name"])
            if not new or not old:
                continue
            sign = 1 if m["better"] == "lower" else -1
            change = sign * (new["median"] - old["median"]) / abs(old["median"])
            # One run has no measured spread, so it cannot resolve a change.
            noisy = any(len(e["values"]) < 2 or spread(e["values"]) > m["bound"]
                        for e in (new, old))
            all_better = all(sign * (v - w) < 0 for v in new["values"]
                             for w in old["values"])
            if change > m["bound"] and not noisy:
                verdict = "REGRESSION"
                ok = False
            elif noisy and not all_better:
                verdict = "unresolved"
            elif change < -m["bound"]:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"  {name:16s} {m['name']:22s} {change:+8.2%} "
                  f"(bound {m['bound']:.0%}) {verdict}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this one workload once")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seed-offset", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="write the summary JSON here")
    parser.add_argument("--compare", help="summary JSON of the base to compare with")
    args = parser.parse_args()

    spec = json.loads(BENCHMARK.read_text()) if BENCHMARK.is_file() else None
    if args.seconds is None:
        args.seconds = spec["run_seconds"] if spec else 10
    if args.seconds == int(args.seconds):
        args.seconds = int(args.seconds)
    binary = build()
    if args.workload:
        return run_one(binary, args)
    if spec is None:
        log("run.py: summaries need", BENCHMARK)
        return 2

    summary, ok = summarise(binary, args, spec)
    print_summary(summary)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    if args.compare:
        ok = compare(summary, json.loads(Path(args.compare).read_text()), spec) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
