#!/usr/bin/env python3
"""Stand-in bench binary for tests/bench_compare_test.py.

Writes the report_jobs1.json fixture to --json <path> with `jobs` set to
the worker count a bench binary would run at: --jobs, else DNSTTL_JOBS,
else the host's core count, the same default as bench_common.h.  Other
flags (--quick, --full) are ignored.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", type=int)
    parser.add_argument("--json", required=True)
    args, _ = parser.parse_known_args()
    jobs = args.jobs or int(os.environ.get("DNSTTL_JOBS") or
                            os.cpu_count() or 1)
    with open(os.path.join(HERE, "report_jobs1.json"), encoding="utf-8") as f:
        report = json.load(f)
    report["jobs"] = jobs
    with open(args.json, "w", encoding="utf-8") as f:
        json.dump(report, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
