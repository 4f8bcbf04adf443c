"""Tests of the benchmark's own machinery.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check      # noqa: E402
import run        # noqa: E402
import workloads  # noqa: E402
from coarsesets import cli  # noqa: E402

SCALES = {"small": (3, (1, 3, 9, 27), 2), "medium": (5, (1, 3, 9, 27, 81), 3),
          "large": (8, (1, 3, 9, 27, 81, 243), 4)}


def _checker():
    return check.Checker(check.load_oracles(ROOT), SCALES)


def _run_cli(job, tmp):
    path = tmp / "recipe.json"
    path.write_text(json.dumps(job.recipe))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(job.argv(str(path)))
    return code, out.getvalue()


class OutputChecks(unittest.TestCase):
    def setUp(self):
        self.tmp = HERE / "out" / f"test-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)

    def tearDown(self):
        for p in self.tmp.iterdir():
            p.unlink()
        self.tmp.rmdir()

    def test_tampered_witness_is_rejected(self):
        job = workloads.Job("t", "detect-pwip", workloads._z_window(40),
                            "medium", depth=3)
        code, out = _run_cli(job, self.tmp)
        checker = _checker()
        self.assertEqual(checker.check(job, code, out), [])
        report = json.loads(out)
        for field, i in (("generators", 0), ("shifts", 1)):
            bad = json.loads(out)
            bad["witness"][field][i] = str(int(bad["witness"][field][i]) + 1)
            self.assertTrue(checker.check(job, code, json.dumps(bad)), field)
        outside = json.loads(out)
        outside["witness"]["shifts"] = [str(int(s) + 1000)
                                        for s in report["witness"]["shifts"]]
        outside["witness"]["products"] = [
            dict(p, value=str(int(p["value"]) + 1000))
            for p in report["witness"]["products"]]
        self.assertIn("a product lies outside the sample",
                      checker.check(job, code, json.dumps(outside)))

    def test_hierarchy_break_is_rejected(self):
        job = workloads.Job("t", "classify", workloads.BATTERY["powers-of-2"],
                            "medium")
        code, out = _run_cli(job, self.tmp)
        checker = _checker()
        self.assertEqual(checker.check(job, code, out), [])
        bad = json.loads(out)
        self.assertEqual(bad["thin"]["degree"], "1")
        bad["sparse"]["verdict"] = "NO_WITNESS_AT_SCALE"
        self.assertIn("thin => sparse => scattered is broken",
                      checker.check(job, code, json.dumps(bad)))

    def test_malformed_report_is_a_failure(self):
        job = workloads.Job("t", "classify", workloads.BATTERY["powers-of-2"],
                            "medium")
        report = {"schema": check.SCHEMA, "kind": "classify"}
        problems = _checker().check(job, 0, json.dumps(report))
        self.assertTrue(problems[0].startswith("malformed report"), problems)

    def test_oracle_disagreement_is_rejected(self):
        known = {k.job.name: k.job for k in workloads.KNOWN_FAILURES}
        job = known["ip-small-pool/d3"]
        code, out = _run_cli(job, self.tmp)
        self.assertEqual(json.loads(out)["verdict"], "NOT_FOUND")
        self.assertIn("FOUND/NOT_FOUND disagrees with the oracle",
                      _checker().check(job, code, out))


class Timeouts(unittest.TestCase):
    def setUp(self):
        self.previous = signal.signal(signal.SIGALRM, run._on_alarm)

    def tearDown(self):
        signal.signal(signal.SIGALRM, self.previous)

    def test_timeout_counts_as_failure_at_the_limit(self):
        slow = workloads.Job("slow", "detect-pwip", workloads._z_window(600),
                             "medium", depth=3)
        inputs = HERE / "out" / f"test-timeout-{os.getpid()}"
        inputs.mkdir(parents=True, exist_ok=True)
        try:
            path = inputs / "slow.json"
            path.write_text(json.dumps(slow.recipe))
            runner = run.Runner(cli, [slow], [slow.argv(str(path))],
                                _checker(), limit=0.2)
            wall, latencies, _ = runner.one_pass()
        finally:
            path.unlink()
            inputs.rmdir()
        self.assertEqual((runner.attempted, runner.failed), (1, 1))
        self.assertEqual(runner.records[0]["exit"], [None])
        self.assertEqual(runner.records[0]["problems"], [["timeout"]])
        self.assertEqual(latencies, [0.2])
        self.assertLess(wall, 2.0)


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        for n, pct, beyond in ((20, 50.0, 10), (39, 50.0, 19), (40, 75.0, 10),
                               (100, 90.0, 10), (199, 90.0, 19),
                               (200, 95.0, 10), (1000, 99.0, 10),
                               (10000, 99.9, 10)):
            got_pct, value, got_n, got_beyond = run.tail_percentile(range(n))
            self.assertEqual((got_pct, got_n, got_beyond), (pct, n, beyond), n)
            self.assertEqual(value, n - 1 - beyond)

    def test_small_samples_fall_back_to_the_median(self):
        self.assertEqual(run.tail_percentile(range(19)), (50.0, 9, 19, 9))


class Determinism(unittest.TestCase):
    def test_same_seed_same_jobs(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.build(name, 7), workloads.build(name, 7))
            self.assertNotEqual(workloads.build(name, 7),
                                workloads.build(name, 8))

    def test_jobs_do_not_depend_on_the_hash_seed(self):
        code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
                "import workloads; print(json.dumps([[j.name, j.recipe, "
                "j.argv('f')] for w in workloads.WORKLOADS "
                "for j in workloads.build(w, 3)]))")
        outs = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            outs.add(subprocess.run([sys.executable, "-c", code, str(HERE)],
                                    env=env, stdout=subprocess.PIPE, text=True,
                                    check=True).stdout)
        self.assertEqual(len(outs), 1)


if __name__ == "__main__":
    unittest.main()
