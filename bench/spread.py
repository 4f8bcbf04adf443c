"""Run-to-run spread of the end-to-end metrics over seeds; the baseline.

    python3 bench/spread.py --seeds 1-10 --seconds 25 --out bench/baseline.json

Runs ``bench/run.py`` once per workload and seed, one process at a time,
and reports for every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to the metric's bound from ``BENCHMARK.json``.  A spread above a
third of its bound is flagged; ``setup_s`` is exempt.  With ``--out`` it
also takes one traced run per workload, replays the known seed failures
and writes everything as the baseline file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)
    report = {"machine": {"cpu": _cpu_model(), "cpus": os.cpu_count(),
                          "python": platform.python_version()},
              "seconds": args.seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for name in args.workloads.split(","):
        values = {m: [] for m in bounds}
        attempted = failed = 0
        for seed in seeds:
            result = _run(["--workload", name, "--seed", str(seed),
                           "--seconds", str(args.seconds), "--trace", "0"])
            attempted += result["attempted"]
            failed += result["failed"]
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        metrics = {}
        print(f"{name}: {attempted} jobs attempted, {failed} failed")
        for m, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = m != "setup_s" and spread > bounds[m] / 3
            steady &= not flag
            metrics[m] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[m], "values": vals}
            print(f"  {m:12s} median {med:.6g}  spread {spread:6.1%}  "
                  f"bound {bounds[m]:.0%}{'  TOO WIDE' if flag else ''}")
        entry = {"attempted": attempted, "failed": failed, "metrics": metrics}
        if args.out:
            traced = _run(["--workload", name, "--seed", str(seeds[0]),
                           "--seconds", str(args.seconds), "--trace", "1"])
            entry["layers_seed"] = seeds[0]
            entry["layers"] = {k: v["value"]
                               for k, v in traced["metrics"].items()}
        report["workloads"][name] = entry
    if args.out:
        _run(["--workload", "known-failures"])
        report["known_failures"] = json.loads(
            (HERE / "out" / "known-failures.json").read_text())
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
