"""Output checks for benchmark jobs.

They share no code with the program's validators: the benchmark parses
each report, materializes the job's set from its recipe with its own
group arithmetic, re-derives every shifted-product witness, and asks the
brute-force oracles in ``tests/oracles.py`` where an instance is small
enough.  Witness bytes are never compared against goldens, so a change
that finds a different valid witness still passes.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from itertools import combinations

from workloads import reduce_word

SCHEMA = "coarse-sets/1"
ORACLE_MAX_ELEMENTS = 40       # tests/oracles.py pwip_exists is exhaustive
ISOLATED_MAX_ELEMENTS = 5000   # direct isolated-balls evaluation stays cheap
CANTOR_MARGIN = 128


def load_oracles(root):
    spec = importlib.util.spec_from_file_location(
        "bench_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Ops:
    """Group arithmetic for a group spec, written apart from the program
    (the oracles call ``mul``, ``inv``, ``div`` and ``sort_key``)."""

    def __init__(self, spec):
        self.spec = spec
        if spec == "z":
            self.family, self.param = "z", None
        elif spec.startswith("z^"):
            self.family, self.param = "lattice", int(spec[2:])
        elif spec.startswith("z2sum:"):
            self.family, self.param = "xor", int(spec[6:])
        elif spec.startswith("free:"):
            self.family, self.param = "free", int(spec[5:])
        else:
            raise ValueError(f"unknown group {spec!r}")

    def identity(self):
        return {"z": 0, "lattice": (0,) * (self.param or 0), "xor": 0,
                "free": ""}[self.family]

    def mul(self, a, b):
        if self.family == "z":
            return a + b
        if self.family == "lattice":
            return tuple(x + y for x, y in zip(a, b))
        if self.family == "xor":
            return a ^ b
        i = 0                      # both words are reduced: cancel the seam
        while i < min(len(a), len(b)) and a[-1 - i] == b[i].swapcase():
            i += 1
        return a[:len(a) - i] + b[i:]

    def inv(self, a):
        if self.family == "z":
            return -a
        if self.family == "lattice":
            return tuple(-x for x in a)
        if self.family == "xor":
            return a
        return a[::-1].swapcase()

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def sort_key(self, el):
        return (len(el), el) if self.family == "free" else el

    def parse(self, text):
        if self.family == "z":
            return int(text)
        if self.family == "lattice":
            return tuple(int(p) for p in text.split(","))
        if self.family == "xor":
            return sum(1 << j for j, ch in enumerate(text) if ch == "1")
        return "" if text == "e" else reduce_word(text)


def _no_one_digit(i):
    while i:
        if i % 3 == 1:
            return False
        i //= 3
    return True


def _cantor(extent):
    """Blocks of length 3^n, each more than 2.3^(n+1) past the last, as
    many as fit the window; keep indices whose base-3 digits avoid 1."""
    offsets, levels = [0], 0
    for n in range(1, 13):
        if offsets[-1] + 3 ** n + CANTOR_MARGIN > extent:
            break
        levels = n
        offsets.append(offsets[-1] + 3 ** n + 2 * 3 ** (n + 1))
    return {offsets[n - 1] + i for n in range(1, max(levels, 1) + 1)
            for i in range(3 ** n + 1) if _no_one_digit(i)}


def _free_window(extent):
    words, frontier = {""}, [""]
    for _ in range(extent):
        frontier = [w + ch for w in frontier for ch in "abAB"
                    if not (w and w[-1] == ch.swapcase())]
        words.update(frontier)
    return words


def _window(ops, n):
    if ops.family == "z":
        return set(range(-n, n + 1))
    if ops.family == "lattice":
        pts = [()]
        for _ in range(ops.param):
            pts = [p + (x,) for p in pts for x in range(-n, n + 1)]
        return set(pts)
    if ops.family == "xor":
        return set(range(2 ** n))
    return _free_window(n)


def _products(ops, gens, shifts=None):
    out = set()
    for size in range(1, len(gens) + 1):
        for idx in combinations(range(len(gens)), size):
            p = ops.identity()
            for i in idx:
                p = ops.mul(p, gens[i])
            out.add(p if shifts is None else ops.mul(p, shifts[idx[-1]]))
    return out


def materialize(recipe):
    """(ops, elements, window extent or None) for a recipe dict."""
    ops = Ops(recipe["group"])
    kind = recipe["kind"]
    window = recipe.get("window")
    if window is None and ops.family == "xor" and kind in ("wn", "window"):
        window = ops.param
    if kind == "explicit":
        elems = {ops.parse(t) for t in recipe["elements"]}
    elif kind == "window":
        elems = _window(ops, window)
    elif kind == "periodic":
        q = int(recipe["modulus"])
        res = {int(r) % q for r in recipe["residues"]}
        elems = {x for x in range(-window, window + 1) if x % q in res}
    elif kind == "powers":
        b, v, elems = int(recipe["base"]), 1, set()
        while v <= window:
            elems.add(v)
            v *= b
    elif kind == "ip":
        elems = _products(ops, [ops.parse(t) for t in recipe["generators"]])
    elif kind == "pwip":
        elems = _products(ops, [ops.parse(t) for t in recipe["generators"]],
                          [ops.parse(t) for t in recipe["shifts"]])
    elif kind == "wn":
        elems = {m for m in range(2 ** window)
                 if bin(m).count("1") <= int(recipe["support"])}
    elif kind == "cantor":
        elems = _cantor(window)
    else:
        raise ValueError(f"no independent materialization for {kind!r}")
    return ops, frozenset(elems), window


def witness_problems(ops, witness, sample, depth):
    """Re-derive a witness from its generators and shifts."""
    if not isinstance(witness, dict):
        return ["witness missing"]
    if witness.get("depth") != str(depth):
        return [f"witness depth {witness.get('depth')} != {depth}"]
    gens = [ops.parse(t) for t in witness["generators"]]
    shifts = [ops.parse(t) for t in witness["shifts"]]
    if len(gens) != depth or len(shifts) != depth:
        return ["wrong number of generators or shifts"]
    if len(set(gens)) != depth:
        return ["generators are not injective"]
    claimed = {tuple(int(i) for i in p["indices"]): ops.parse(p["value"])
               for p in witness["products"]}
    derived = {}
    for size in range(1, depth + 1):
        for idx in combinations(range(depth), size):
            p = ops.identity()
            for i in idx:
                p = ops.mul(p, gens[i])
            derived[idx] = ops.mul(p, shifts[idx[-1]])
    problems = []
    if claimed != derived:
        problems.append("products do not re-derive from generators and shifts")
    values = list(derived.values())
    if len(set(values)) != len(values):
        problems.append("products are not distinct")
    if any(v not in sample for v in values):
        problems.append("a product lies outside the sample")
    return problems


class Checker:
    """Checks job outputs; caches materialized sets and oracle answers
    for the run, so repeated passes cost little."""

    def __init__(self, oracles, scales):
        self.oracles = oracles
        self.scales = scales       # name -> (f_max, z ladder, max_depth)
        self._sets = {}
        self._answers = {}

    def sample(self, recipe):
        key = json.dumps(recipe, sort_keys=True)
        if key not in self._sets:
            self._sets[key] = materialize(recipe)
        return self._sets[key]

    def _oracle(self, key, fn):
        if key not in self._answers:
            self._answers[key] = fn()
        return self._answers[key]

    def pwip_exists(self, ops, elems, depth):
        return self._oracle(("pwip", ops.spec, elems, depth),
                            lambda: self.oracles.pwip_exists(ops, elems, depth))

    def check(self, job, code, stdout):
        """List of problems with one job's output (empty when correct)."""
        if code not in (0, 1):
            return [f"exit code {code}"]
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return ["stdout is not one JSON report"]
        if not isinstance(report, dict) or report.get("schema") != SCHEMA:
            return [f"not a {SCHEMA} report"]
        by_command = {"detect-pwip": self._detect, "classify": self._classify,
                      "density-pwip": self._density}
        if job.command not in by_command:
            return []
        try:
            return by_command[job.command](job, report)
        except (KeyError, TypeError, ValueError) as exc:
            return [f"malformed report: {type(exc).__name__}: {exc}"]

    def _detect(self, job, report):
        ops, elems, _ = self.sample(job.recipe)
        found = report.get("verdict") == "FOUND"
        if report.get("verdict") not in ("FOUND", "NOT_FOUND"):
            return [f"verdict {report.get('verdict')!r}"]
        if found:
            problems = witness_problems(ops, report.get("witness"), elems,
                                        job.depth)
        else:
            problems = [] if report.get("witness") is None else \
                ["NOT_FOUND report carries a witness"]
        if len(elems) <= ORACLE_MAX_ELEMENTS and job.depth <= 3 \
                and 2 ** job.depth - 1 <= len(elems):
            if found != self.pwip_exists(ops, elems, job.depth):
                problems.append("FOUND/NOT_FOUND disagrees with the oracle")
        return problems

    def _classify(self, job, report):
        problems = []
        thin = report["thin"]["degree"] == "1"
        sparse = report["sparse"]["verdict"] == "WITNESS_FOUND"
        scattered = report["isolated_balls"]["verdict"] == "HAS_ISOLATED_BALLS"
        if (thin and not sparse) or (sparse and not scattered):
            problems.append("thin => sparse => scattered is broken")
        ops, elems, window = self.sample(job.recipe)
        f_max, ladder, max_depth = self.scales[job.budget]
        depth = int(report["pwip"]["max_depth"])
        if depth:
            problems += witness_problems(ops, report["pwip"]["witness"],
                                         elems, depth)
        nxt = depth + 1
        if len(elems) <= ORACLE_MAX_ELEMENTS and depth < max_depth \
                and nxt <= 3 and 2 ** nxt - 1 <= len(elems):
            if self.pwip_exists(ops, elems, nxt):
                problems.append(f"oracle finds a depth-{nxt} witness that "
                                "classify missed")
        if ops.family == "z" and window is not None \
                and len(elems) <= ISOLATED_MAX_ELEMENTS:
            expected = self._isolated(elems, window, f_max, ladder)
            if report["isolated_balls"]["verdict"] != expected:
                problems.append("isolated-balls verdict disagrees with "
                                "oracles.isolated_balls_direct")
        return problems

    def _isolated(self, elems, window, f_max, ladder):
        def compute():
            margin = f_max + ladder[-1]
            interior = sorted(y for y in elems if abs(y) <= window - margin)
            f_family = [range(-r, r + 1) for r in range(f_max + 1)]
            h_families = [[range(-(r + t), r + t + 1) for t in ladder]
                          for r in range(f_max + 1)]
            return self.oracles.isolated_balls_direct(
                Ops("z"), elems, interior, f_family, h_families)
        return self._oracle(("isolated", elems, window, f_max, ladder), compute)

    def _density(self, job, report):
        _, elems, _ = self.sample(dict(job.recipe, window=job.window))
        depth = int(report["achieved_depth"])
        found = report.get("verdict") == "FOUND"
        if found != (depth > 0):
            return ["verdict and achieved depth disagree"]
        if not found:
            return []
        return witness_problems(Ops("z"), report["witness"], elems, depth)


VERDICT_KEYS = ("kind", "verdict", "degree", "size", "max_depth",
                "achieved_depth", "found_radius", "winning_radius",
                "consistent")


def verdict_digest(code, stdout):
    """Short digest of a job's verdict fields (never of its witnesses)."""
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        report = None
    summary = {"exit": code}
    if isinstance(report, dict):
        for key in VERDICT_KEYS:
            if key in report:
                summary[key] = report[key]
        for part in ("thin", "sparse", "isolated_balls", "pwip"):
            if isinstance(report.get(part), dict):
                summary[part] = {k: v for k, v in report[part].items()
                                 if k in VERDICT_KEYS}
    text = json.dumps(summary, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
