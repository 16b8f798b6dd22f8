#!/usr/bin/env python3
"""Builds the real-stack benchmark from source and runs one workload.

    python3 stackbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first call configures and builds
stackbench/ (which compiles ../src) under $CARGO_TARGET_DIR/stackbench,
default .bench_build/stackbench; later calls only re-check the build.
Build output goes to stderr.  stdout carries stack_bench's report (every
metric with its unit and sample count) and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.

Exit status is non-zero, with no result line, when the sources or the
build are missing or broken; and non-zero, with "correct": false, when an
answer disagrees with the generator's ground truth or the traced and
untraced runs disagree on their fingerprint.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import selftime  # noqa: E402

WORKLOADS = ("warm_popular", "cold_hosted", "evict_churn")
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "stackbench"


def build():
    """Configures (once) and builds stack_bench; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("run.py: no dnsttl sources at src/", file=sys.stderr)
        return None
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "--target", "stack_bench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
        except OSError as err:
            print(f"run.py: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    binary = out / "stack_bench"
    return binary if binary.is_file() else None


def layer_metrics(layers, per_layer):
    """Self-time metrics from the span summary, in µs."""
    def count(name):
        return layers.get(name, {}).get("count", 0)

    def per(name, key):
        return layers[name][key] / count(name) if count(name) else 0.0

    auth_us = per("auth", "total_us")
    zone_us = per_layer["zone.lookup_us"]["value"]
    return {
        "sim.self_us_per_event": (layers["sim"]["self_us"] / count("event")
                                  if count("event") else 0.0),
        "net.stub_hop_us": per("stub", "self_us"),
        "resolver.self_us": per("resolver", "self_us"),
        "auth.us_per_query": auth_us,
        "auth.self_us_per_query": auth_us - zone_us if count("auth") else 0.0,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")

    binary = build()
    if binary is None:
        return 1
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    spans = build_dir() / f"spans-{args.workload}.tsv"
    if args.trace:
        cmd += ["--spans", str(spans)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"run.py: stack_bench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        report = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(done.stdout, end="")
        print(f"run.py: stack_bench exited {done.returncode} without a report",
              file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))

    if args.trace:
        metrics = dict(report["per_layer"])
        layers = selftime.summarize(spans)
        print(f"self time from {spans.name}:")
        for name, value in layer_metrics(layers, metrics).items():
            metrics[name] = {"value": value, "unit": "us"}
            print(f"  {name:36} {value:18.6f} us     (n={report['resolutions']})")
    else:
        metrics = report["end_to_end"]
    result = {
        "correct": report["correct"] and done.returncode == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
