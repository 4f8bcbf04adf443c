"""Closed-loop benchmark of the coarsesets CLI.

Usage (from the root of a checkout):

    python3 bench/run.py --workload classify-z --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload
    python3 bench/run.py --workload known-failures      # seed failures

One client runs the workload's job list through ``coarsesets.cli.run``
in this process, one job after another, pass after pass, until the next
pass would end after ``--seconds`` of measuring (output checks are not
counted).  Every job has a SIGALRM time limit; a job that fails (error,
timeout or failed output check) is counted and enters both latency
metrics at the time limit.  The last line of stdout is one JSON object:
end-to-end metrics with ``--trace 0``; with ``--trace 1``, per-layer
metrics from one untraced, one traced and one counted pass.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check      # noqa: E402
import spans      # noqa: E402
import workloads  # noqa: E402

HASH_SEED = "0"        # free:2 elements are str; pin set iteration order
JOB_LIMIT_S = 10.0     # per-job SIGALRM limit in the timed workloads
KNOWN_LIMIT_S = 20.0   # per-job limit when replaying the seed failures
HARD_LIMIT_S = 150.0   # jobs still due after this are recorded as timeouts
SETUP_ROUNDS = 5
PERMILLES = (999, 990, 950, 900, 750, 500)
REFERENCE_S = 0.020    # duration of reference() at the reference speed


class JobTimeout(BaseException):
    """Raised by the SIGALRM handler.  A BaseException, so that the CLI's
    ``except (OSError, ValueError, ...)`` cannot turn it into exit 2."""


def _on_alarm(signum, frame):
    raise JobTimeout


_REF_BIG = range(0, 24000, 3)
_REF_SET = frozenset(range(-4000, 4000, 67)) | frozenset(range(-3900, 4000, 89))
_REF_ORDER = sorted(_REF_SET)


class _Adder:
    """Method-call arithmetic, as the program's Group objects do it."""

    def mul(self, a, b):
        return a + b

    def inv(self, a):
        return -a

    def div(self, a, b):
        return self.mul(a, self.inv(b))


_ADDER = _Adder()


def reference():
    """Time a fixed pure-Python loop shaped like the program's work: tuple
    translates, set intersections over a larger working set, dict
    updates, sorting, word reduction, and a product-assignment search
    through method calls like the pwip search.

    The machine's interpreter throughput drifts by up to 1.6x between
    runs minutes apart as other tenants load it, and every job slows by
    about the same factor.  Passes run this loop before every third job
    and scale their times by REFERENCE_S / (mean loop time), which
    cancels most of that drift.
    """
    start = time.perf_counter()
    pts = [(x % 37 - 18, x // 37 - 18) for x in range(1369)]
    box = frozenset(pts)
    for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1)):
        moved = {(a + dx, b + dy) for a, b in pts}
        moved &= box
    counts = {}
    for i, p in enumerate(pts):
        counts[p] = counts.get(p, 0) + i
    words = [("abAB"[i & 3] + "abAB"[i >> 2 & 3] + "ba"[i >> 4 & 1]) * 2
             for i in range(600)]
    words.sort(key=lambda w: (len(w), w))
    for w in words[:300]:
        out = []
        for ch in w + w[::-1].swapcase():
            if out and out[-1] == ch.swapcase():
                out.pop()
            else:
                out.append(ch)
    spread = {x * 7 % 20011 for x in _REF_BIG}
    spread &= frozenset(x + 1 for x in spread)
    sorted((x % 97, -x) for x in _REF_BIG)
    for a in _REF_ORDER[:12]:
        for b in _REF_ORDER:
            g = b - a
            for c in _REF_ORDER[:20]:
                if c + g in _REF_SET:
                    break
    prefix = {(): 0, (0,): 5}
    for xj in _REF_ORDER:
        taken = set(prefix.values())
        part = {}
        for t in _REF_ORDER[:50]:
            v = _ADDER.mul(_ADDER.div(t, xj), xj)
            if v in _REF_SET and v not in taken and v not in part.values():
                part[(t,)] = v
        grown = dict(prefix)
        grown.update(part)
    return time.perf_counter() - start


def tail_percentile(values):
    """(percentile, value, n, beyond): the highest of 99.9/99/95/90/75/50
    (nearest rank) with at least ten samples beyond it, else the median."""
    ordered = sorted(values)
    n = len(ordered)
    for pm in PERMILLES:
        k = max((pm * n + 999) // 1000 - 1, 0)
        if n - 1 - k >= 10 or pm == 500:
            return pm / 10, ordered[k], n, n - 1 - k


def run_job(cli, argv, limit):
    """(seconds, exit code or None on timeout or an error text, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        code = None
    except Exception as exc:   # a crash inside the program fails the job
        code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue()


def _purge_program():
    for name in [m for m in sys.modules
                 if m == spans.PACKAGE or m.startswith(spans.PACKAGE + ".")]:
        del sys.modules[name]


def setup(jobs_for, inputs):
    """Import the program and write the job inputs; (seconds at the
    reference speed, cli, jobs, argvs)."""
    _purge_program()
    scale = REFERENCE_S / reference()
    start = time.perf_counter()
    cli = importlib.import_module(f"{spans.PACKAGE}.cli")
    jobs = jobs_for()
    argvs = []
    for i, job in enumerate(jobs):
        path = inputs / f"{i:03d}.json"
        path.write_text(json.dumps(job.recipe))
        argvs.append(job.argv(str(path)))
    return (time.perf_counter() - start) * scale, cli, jobs, argvs


class Runner:
    """Runs jobs, checks their outputs and keeps one record per job."""

    def __init__(self, cli, jobs, argvs, checker, limit=JOB_LIMIT_S):
        self.cli, self.jobs, self.argvs = cli, jobs, argvs
        self.checker, self.limit = checker, limit
        self.records = [{"name": j.name, "argv": a, "seconds": [], "exit": [],
                         "problems": [], "digest": None}
                        for j, a in zip(jobs, argvs)]
        self._verified = {}         # job index -> output that passed checks
        self.started = time.perf_counter()
        self.attempted = self.failed = 0
        self.check_s = 0.0

    def one_pass(self, on_job=None):
        """Run every job once; (summed job seconds, per-job recorded
        latencies with failures at the time limit, reference scale)."""
        total, latencies, refs = 0.0, [], []
        for i, job in enumerate(self.jobs):
            if i % 3 == 0:
                refs.append(reference())
            left = HARD_LIMIT_S - (time.perf_counter() - self.started)
            if on_job:
                on_job(i)
            if left <= 0:
                seconds, code, out = self.limit, None, ""
            else:
                seconds, code, out = run_job(self.cli, self.argvs[i],
                                             min(self.limit, left))
            problems = self._problems(i, job, code, out)
            rec = self.records[i]
            rec["seconds"].append(round(seconds, 6))
            rec["exit"].append(code)
            if problems and problems not in rec["problems"]:
                rec["problems"].append(problems)
            self.attempted += 1
            self.failed += bool(problems)
            total += seconds
            latencies.append(self.limit if problems else seconds)
        return total, latencies, REFERENCE_S / statistics.mean(refs)

    def _problems(self, i, job, code, out):
        if code is None:
            return ["timeout"]
        if isinstance(code, str):
            return [f"crash: {code}"]
        if self._verified.get(i) == out:
            return []
        start = time.perf_counter()
        problems = self.checker.check(job, code, out)
        self.check_s += time.perf_counter() - start
        if not problems:
            self._verified[i] = out
            self.records[i]["digest"] = check.verdict_digest(code, out)
        return problems


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(runner, seconds):
    walls, raw, scales, per_job = [], [], [], [[] for _ in runner.jobs]
    while True:
        wall, latencies, scale = runner.one_pass()
        walls.append(wall * scale)
        raw.append(wall)
        scales.append(scale)
        for samples, x in zip(per_job, latencies):
            samples.append(x * scale)
        measured = time.perf_counter() - runner.started - runner.check_s
        if measured + wall > seconds:
            break
    job_medians = [statistics.median(s) for s in per_job]
    pct, tail, n, beyond = tail_percentile(job_medians)
    info = {"passes": len(walls), "pass_wall_s": walls,
            "pass_wall_unscaled_s": raw, "pass_scale": scales,
            "check_s": runner.check_s,
            "job_medians_s": job_medians,
            "job_tail": {"percentile": pct, "jobs": n, "beyond": beyond}}
    return {
        "wall_s": _metric(statistics.median(walls), "s"),
        "job_p50_s": _metric(statistics.median(job_medians), "s"),
        "job_tail_s": _metric(tail, "s"),
    }, info


def traced_run(runner):
    untraced, _, untraced_scale = runner.one_pass()
    tracer = spans.Tracer()
    patch = spans.install_spans(tracer)
    try:
        job_s, _, traced_scale = runner.one_pass(
            on_job=lambda i: setattr(tracer, "job", i))
    finally:
        patch.undo()
    counts = Counter()
    patch = spans.install_op_counts(counts)
    try:
        runner.one_pass()
    finally:
        patch.undo()
    overhead = job_s * traced_scale - untraced * untraced_scale
    layers = spans.layer_metrics(tracer, job_s, counts, overhead)
    return {k: _metric(v, unit) for k, (v, unit) in layers.items()}, tracer


def _scales():
    budgets = sys.modules[f"{spans.PACKAGE}.budgets"]
    out = {}
    for name in ("small", "medium", "large"):
        s = budgets.preset(name)
        out[name] = (s.f_max, tuple(s.ladder), s.max_depth)
    return out


def _print_summary(workload, seed, metrics, runner, info):
    frac = runner.failed / runner.attempted
    print(f"workload {workload} seed {seed}: {len(runner.jobs)} jobs, "
          f"{runner.attempted} attempted, {runner.failed} failed")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':34s} {frac:.6g} ratio")
    if "job_tail" in info:
        t = info["job_tail"]
        print(f"  job_tail_s is p{t['percentile']:g} of {t['jobs']} per-job "
              f"median latencies ({t['beyond']} beyond); "
              f"{info['passes']} passes")
    for rec in runner.records:
        for problems in rec["problems"]:
            print(f"  FAILED {rec['name']}: {'; '.join(problems)}")


def run_workload(args, out_dir):
    inputs = out_dir / f"inputs-{args.workload}-{os.getpid()}"
    inputs.mkdir(parents=True)
    try:
        samples = []
        for _ in range(SETUP_ROUNDS):
            seconds, cli, jobs, argvs = setup(
                lambda: workloads.build(args.workload, args.seed), inputs)
            samples.append(seconds)
        checker = check.Checker(check.load_oracles(ROOT), _scales())
        runner = Runner(cli, jobs, argvs, checker)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics, tracer = traced_run(runner)
            tracer.dump(out_dir / f"spans-{tag}.json")
            info = {}
        else:
            metrics, info = timed_run(runner, args.seconds)
            metrics = {"setup_s": _metric(statistics.median(samples), "s"),
                       **metrics,
                       "peak_rss_mb": _metric(
                           resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           / 1024, "MB")}
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    (out_dir / f"results-{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "result": result,
         "setup_samples_s": samples, **info, "jobs": runner.records},
        indent=1))
    _print_summary(args.workload, args.seed, metrics, runner, info)
    print(json.dumps(result))
    return 0


def run_known_failures(out_dir):
    """Replay the seed failures once each and report which still fail."""
    inputs = out_dir / f"inputs-known-{os.getpid()}"
    inputs.mkdir(parents=True)
    known = workloads.KNOWN_FAILURES
    try:
        _, cli, jobs, argvs = setup(lambda: [k.job for k in known], inputs)
        checker = check.Checker(check.load_oracles(ROOT), _scales())
        runner = Runner(cli, jobs, argvs, checker, limit=KNOWN_LIMIT_S)
        runner.one_pass()
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    cases = []
    for k, rec in zip(known, runner.records):
        problems = rec["problems"][0] if rec["problems"] else []
        cases.append({"name": k.job.name, "argv": rec["argv"],
                      "expected": k.expect, "cause": k.cause,
                      "seconds": rec["seconds"][0], "exit": rec["exit"][0],
                      "problems": problems, "still_fails": bool(problems)})
        state = "fails" if problems else "PASSES NOW"
        print(f"  {state:10s} {k.job.name:28s} {rec['seconds'][0]:7.2f} s  "
              f"expected {k.expect}: {'; '.join(problems)}")
    (out_dir / "known-failures.json").write_text(json.dumps(cases, indent=1))
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": {}}))
    return 0


def run_all(args):
    """Every workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v
                                 for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all", "known-failures"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(Path(__file__)),
                                  *sys.argv[1:]])
    for needed in (ROOT / "src" / spans.PACKAGE / "cli.py",
                   ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"bench: {needed.relative_to(ROOT)} is missing; run from a "
                  "full checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _on_alarm)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    if args.workload == "known-failures":
        return run_known_failures(out_dir)
    return run_workload(args, out_dir)


if __name__ == "__main__":
    sys.exit(main())
