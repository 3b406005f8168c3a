"""Tests of the benchmark command's argument and failure handling.

Run from the root of a checkout:  python3 -m unittest perfbench/test_run.py
(the C++ side has its own tests: .bench_build/perfbench/perfbench_test).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN] + args, cwd=cwd, capture_output=True,
                          text=True, timeout=900)


def has_result_line(stdout):
    lines = stdout.strip().split("\n")
    try:
        return set(json.loads(lines[-1])) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        return False


VALID = ["--workload", "websearch_star", "--seed", "1", "--seconds", "1", "--trace", "0"]


class BadArguments(unittest.TestCase):
    def assert_refused(self, args):
        p = run(args)
        self.assertNotEqual(p.returncode, 0, p.stderr)
        self.assertFalse(has_result_line(p.stdout))

    def test_unknown_flag(self):
        self.assert_refused(VALID + ["--jobs", "4"])

    def test_missing_flag(self):
        self.assert_refused(VALID[:-2])

    def test_bad_trace(self):
        self.assert_refused(VALID[:-1] + ["2"])

    def test_non_integer_seed(self):
        self.assert_refused(["--workload", "websearch_star", "--seed", "1.5", "--seconds", "1",
                             "--trace", "0"])

    def test_zero_seconds(self):
        self.assert_refused(VALID[:5] + ["0"] + VALID[6:])

    def test_unknown_workload(self):
        p = run(["--workload", "leafspine", "--seed", "1", "--seconds", "1", "--trace", "0"])
        self.assertNotEqual(p.returncode, 0)
        self.assertFalse(has_result_line(p.stdout))
        self.assertIn("unknown workload", p.stderr)


class WithoutSources(unittest.TestCase):
    def test_fails_without_the_simulator_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = run(VALID, cwd=tmp)
            self.assertNotEqual(p.returncode, 0)
            self.assertFalse(has_result_line(p.stdout))


if __name__ == "__main__":
    unittest.main()
