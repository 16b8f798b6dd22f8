#!/usr/bin/env python3
"""Per-layer self time from a stack_bench span file.

A span's self time is its duration minus the durations of its direct
children.  The traced run writes one row per span:

    id  parent  resolution  name  start_ns  end_ns

with parent 0 for the root.  Layers are the span names: sim (the timed
window of Simulation::run), event (one handler call), stub
(StubResolver::query), resolver (RecursiveResolver::handle_query) and auth
(AuthServer::handle_query).

Usage: python3 stackbench/selftime.py SPANS.tsv
"""

import sys


def summarize(path):
    """Returns {name: {"count", "total_us", "self_us"}} for one span file."""
    names = []
    parents = []
    durations = []
    with open(path, encoding="ascii") as f:
        header = f.readline().split()
        if header != ["id", "parent", "resolution", "name", "start_ns", "end_ns"]:
            raise ValueError(f"{path}: not a stack_bench span file")
        for line in f:
            span_id, parent, _resolution, name, start, end = line.split("\t")
            if int(span_id) != len(names) + 1:
                raise ValueError(f"{path}: span ids out of order at {span_id}")
            names.append(name)
            parents.append(int(parent))
            durations.append(int(end) - int(start))
    child_ns = [0] * (len(names) + 1)
    for parent, duration in zip(parents, durations):
        child_ns[parent] += duration
    layers = {}
    for i, (name, duration) in enumerate(zip(names, durations)):
        layer = layers.setdefault(name, {"count": 0, "total_us": 0.0, "self_us": 0.0})
        layer["count"] += 1
        layer["total_us"] += duration / 1000.0
        layer["self_us"] += (duration - child_ns[i + 1]) / 1000.0
    return layers


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    layers = summarize(argv[1])
    window = layers.get("sim", {}).get("total_us", 0.0)
    resolutions = layers.get("event", {}).get("count", 0)
    print(f"{'layer':10} {'spans':>9} {'total_us':>14} {'self_us':>14} "
          f"{'self_us/res':>12} {'self_share':>10}")
    for name, layer in layers.items():
        per_res = layer["self_us"] / resolutions if resolutions else 0.0
        share = layer["self_us"] / window if window else 0.0
        print(f"{name:10} {layer['count']:9d} {layer['total_us']:14.1f} "
              f"{layer['self_us']:14.1f} {per_res:12.4f} {share:10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
