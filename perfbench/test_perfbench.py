"""The benchmark's own checks (standard library only; about 3 minutes).

    python3 -m unittest perfbench/test_perfbench.py

- BENCHMARK.json names exactly the workloads and metrics the code reports;
- an answer check counts a mismatch as a failure, also under `python -O`;
- a traced round gives the same answers as an untraced one, and the exact
  counters repeat exactly across two traced rounds of one seed;
- in a directory without the framecalc sources the benchmark exits non-zero
  and prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402

EXACT_COUNTS = ("rings.mul.calls", "witt.memo.entries",
                "deformation.lift_pairs.count", "frames.frame_axiom_check.checks")


def traced_metrics(workload, seed, plain_job_s):
    deadline = time.monotonic() + 170
    traced = run.spawn(workload, seed, deadline, "--trace")
    return traced, tracing.layer_metrics(traced, plain_job_s,
                                         traced["trace"]["wrapper_us"])


class ContractTest(unittest.TestCase):

    def test_benchmark_json_matches_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         ["setup_s", "job_s", "peak_rss_mb"])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         tracing.PER_LAYER)
        names = {name for name, _ in tracing.PER_LAYER}
        for workload, exercised in tracing.EXERCISED.items():
            self.assertIn(workload, run.WORKLOADS)
            self.assertLessEqual(set(exercised), names)

    def test_failed_answer_counts_under_optimize(self):
        code = ("import worker; r = worker.Recorder(); r.check('x', 1, 2)\n"
                "with r.step('boom'):\n    raise ValueError('no')\n"
                "print(r.attempted, r.failed)")
        out = subprocess.run([sys.executable, "-O", "-c", code], cwd=HERE,
                             capture_output=True, text=True, check=True)
        self.assertEqual(out.stdout.split(), ["2", "2"])

    def test_bare_directory_fails_without_result(self):
        bare = os.path.join(HERE, "out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for name in os.listdir(HERE):
            if name.endswith(".py"):
                shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "k3-iso",
                 "--seed", "1", "--seconds", "20", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class TracingTest(unittest.TestCase):

    def test_tracing_changes_no_answer_and_counts_repeat(self):
        seed = 5
        for workload in ("frame-axioms", "k3-iso"):
            with self.subTest(workload=workload):
                plain = run.spawn(workload, seed, time.monotonic() + 170)
                first, m1 = traced_metrics(workload, seed, plain["job_s"])
                second, m2 = traced_metrics(workload, seed, plain["job_s"])
                self.assertEqual(plain["failed"], 0, plain["failures"])
                self.assertEqual(first["answers_sha256"], plain["answers_sha256"])
                self.assertEqual(second["answers_sha256"], plain["answers_sha256"])
                self.assertEqual(first["attempted"], plain["attempted"])
                for name in EXACT_COUNTS:
                    self.assertEqual(m1[name], m2[name], name)
                for name in tracing.EXERCISED[workload]:
                    self.assertTrue(m1[name], name)
                self.assertGreaterEqual(m1["trace.other_s"], 0.0)


if __name__ == "__main__":
    unittest.main()
