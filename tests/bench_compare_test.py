#!/usr/bin/env python3
"""tools/bench_compare.py refuses to compare reports taken at different
--jobs, --scale or --seed, and --run-and-compare runs the binary at the
baseline's --jobs.

Sharded binaries build one World replica per shard, so peak RSS and
throughput scale with --jobs; a gate that let the host's core count pick
--jobs failed on memory on multi-core hosts and would hide a throughput
regression.  A --quick run against a full-scale baseline measures a tenth
of the population and passes on figures it never matched.  Runs no
benchmark: the reports are fixtures under tests/bench_compare/, each pair
differing only in `jobs`, `scale` or `seed`, and the "binary" is
tests/bench_compare/fake_bench.py.

Run: python3 tests/bench_compare_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "bench_compare")
COMPARE = os.path.join(HERE, os.pardir, "tools", "bench_compare.py")
JOBS1 = os.path.join(FIXTURES, "report_jobs1.json")
JOBS4 = os.path.join(FIXTURES, "report_jobs4.json")
SCALE1 = os.path.join(FIXTURES, "report_scale1.json")
SEED2 = os.path.join(FIXTURES, "report_seed2.json")
FAKE_BENCH = os.path.join(FIXTURES, "fake_bench.py")


def run_compare(*args, env=None):
    return subprocess.run([sys.executable, COMPARE, *args],
                          capture_output=True, text=True, env=env)


class JobsGateTest(unittest.TestCase):
    def test_mismatched_jobs_is_refused(self):
        for baseline, current in ((JOBS1, JOBS4), (JOBS4, JOBS1)):
            result = run_compare(baseline, current)
            self.assertEqual(result.returncode, 2, result.stdout)
            self.assertIn("jobs mismatch", result.stdout)
        self.assertIn("baseline jobs=1, current jobs=4",
                      run_compare(JOBS1, JOBS4).stdout)

    def test_equal_jobs_compares(self):
        for report in (JOBS1, JOBS4):
            result = run_compare(report, report)
            self.assertEqual(result.returncode, 0, result.stdout)
            self.assertNotIn("jobs mismatch", result.stdout)
            self.assertIn("client_queries", result.stdout)

    def test_jobs_missing_from_one_report_is_refused(self):
        with open(JOBS1, encoding="utf-8") as handle:
            report = json.load(handle)
        del report["jobs"]
        with tempfile.TemporaryDirectory() as tmp:
            no_jobs = os.path.join(tmp, "no_jobs.json")
            with open(no_jobs, "w", encoding="utf-8") as handle:
                json.dump(report, handle)
            result = run_compare(JOBS1, no_jobs)
        self.assertEqual(result.returncode, 2, result.stdout)
        self.assertIn("current jobs=missing", result.stdout)

    def test_mismatched_scale_is_refused(self):
        for baseline, current in ((SCALE1, JOBS1), (JOBS1, SCALE1)):
            result = run_compare(baseline, current)
            self.assertEqual(result.returncode, 2, result.stdout)
            self.assertIn("scale mismatch", result.stdout)
        self.assertIn("baseline scale=1, current scale=0.1",
                      run_compare(SCALE1, JOBS1).stdout)

    def test_mismatched_seed_is_refused(self):
        for baseline, current in ((SEED2, JOBS1), (JOBS1, SEED2)):
            result = run_compare(baseline, current)
            self.assertEqual(result.returncode, 2, result.stdout)
            self.assertIn("seed mismatch", result.stdout)
        self.assertIn("baseline seed=1, current seed=2",
                      run_compare(JOBS1, SEED2).stdout)

    def test_equal_scale_and_seed_compare(self):
        for report in (SCALE1, SEED2):
            result = run_compare(report, report)
            self.assertEqual(result.returncode, 0, result.stdout)
            self.assertNotIn("mismatch", result.stdout)

    def test_run_and_compare_refuses_other_scale(self):
        # fake_bench reports scale 0.1 whatever its flags, like a --quick
        # run held against a full-scale baseline.
        result = run_compare("--run-and-compare", FAKE_BENCH, SCALE1)
        self.assertEqual(result.returncode, 2, result.stdout)
        self.assertIn("scale mismatch", result.stdout)

    def test_run_and_compare_pins_baseline_jobs(self):
        # DNSTTL_JOBS=3 matches neither fixture, so only the pinned
        # --jobs can make the fresh report agree with the baseline.
        env = dict(os.environ, DNSTTL_JOBS="3")
        for baseline in (JOBS1, JOBS4):
            result = run_compare("--run-and-compare", FAKE_BENCH, baseline,
                                 "--run-args=--full", env=env)
            self.assertEqual(result.returncode, 0, result.stdout)
            self.assertNotIn("jobs mismatch", result.stdout)


if __name__ == "__main__":
    unittest.main()
