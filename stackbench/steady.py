#!/usr/bin/env python3
"""Steadiness runner for the real-stack benchmark.

Runs every workload --runs times, each run in a fresh process of
stackbench/run.py with --trace 0 and its own seed (1, then +1 per round),
alternating the workload order between rounds.  Prints, per workload and
end-to-end metric, the median and quartiles (statistics.quantiles(values,
n=4)) and the spread (q3 - q1) / median next to the bound in
BENCHMARK.json.  A spread under a third of the bound is "steady"; under the
bound, "within"; above it, "NOISY".

With --sets 2 the whole set of runs is repeated with the same seeds, and a
last table shows by how much the second set's median differs from the
first's, in either direction, against the same bound.

    python3 stackbench/steady.py [--runs 10] [--sets 1]

Run from the repository root.  Exit status 1 if any run failed, any spread
(setup_s included) exceeds its bound, or the two sets' medians differ by
more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "stackbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result")
    return result["metrics"]


def run_set(workloads, runs, seconds, label):
    """{workload: {metric: [value per run]}} for one set of runs."""
    values = {w: {} for w in workloads}
    started = time.monotonic()
    for r in range(runs):
        for w in (workloads if r % 2 == 0 else workloads[::-1]):
            for name, m in run_once(w, 1 + r, seconds).items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{label} round {r + 1}/{runs} {w} done "
                  f"({time.monotonic() - started:.0f} s)", file=sys.stderr)
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    sets = [run_set(workloads, args.runs, seconds, f"set {s + 1}")
            for s in range(args.sets)]

    failed = False
    lines = [f"runs per workload and set: {args.runs}; sets: {args.sets}; "
             f"run_seconds: {seconds}; seeds 1..{args.runs}"]
    medians = []
    for s, values in enumerate(sets):
        lines += ["", f"set {s + 1}:", "",
                  "| workload | metric | q1 | median | q3 | spread | bound | verdict |",
                  "|---|---|---|---|---|---|---|---|"]
        medians.append({})
        for w in workloads:
            for name, vals in values[w].items():
                q1, med, q3 = statistics.quantiles(vals, n=4)
                medians[s][w, name] = med
                spread = (q3 - q1) / med if med else 0.0
                bound = metrics[name]["bound"]
                if spread < bound / 3:
                    verdict = "steady"
                elif spread <= bound:
                    verdict = "within"
                else:
                    verdict = "NOISY"
                    failed = True
                lines.append(f"| {w} | {name} | {q1:.6g} | {med:.6g} | {q3:.6g} | "
                             f"{spread:.4f} | {bound} | {verdict} |")
    if len(medians) == 2:
        lines += ["", "set 2 median against set 1 (positive = worse):", "",
                  "| workload | metric | median 1 | median 2 | change | bound | verdict |",
                  "|---|---|---|---|---|---|---|"]
        for (w, name), first in medians[0].items():
            second = medians[1][w, name]
            change = (second - first) / first if first else 0.0
            worse = change if metrics[name]["better"] == "lower" else -change
            bound = metrics[name]["bound"]
            verdict = "ok" if abs(worse) <= bound else "APART"
            failed |= abs(worse) > bound
            lines.append(f"| {w} | {name} | {first:.6g} | {second:.6g} | "
                         f"{worse:+.4f} | {bound} | {verdict} |")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
