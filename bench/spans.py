"""Spans and group-operation counts, installed from outside the program.

The tracer replaces public functions of the program's modules with
timing wrappers, also where another module re-imported the name (for
example ``classifiers.restricted_ball``).  Spans stay in memory in flat
arrays and are written out when the run ends; self time (a span's
length minus the time its child spans cover) is summed as spans close.

Group operations are counted in a separate pass: wrapping ``mul`` adds
enough cost per call to distort every span around it.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute, span name); "Class.method" wraps a method.
SPANS = [
    ("groups", "enumerate_window", "groups.enumerate_window"),
    ("groups", "word_ball_elements", "groups.word_ball"),
    ("recipes", "SetSpec.resolve", "recipes.resolve"),
    ("geometry", "restricted_ball", "geometry.restricted_ball"),
    ("geometry", "chain_partition", "geometry.chain_partition"),
    ("geometry", "chain_component", "geometry.chain_component"),
    ("geometry", "cellularity_probe", "geometry.cellularity"),
    ("geometry", "Radius.thicken", "geometry.thicken"),
    ("classifiers", "thin_degree", "classifiers.thin"),
    ("classifiers", "sparse_witness", "classifiers.sparse"),
    ("classifiers", "isolated_balls_verdict", "classifiers.isolated"),
    ("classifiers", "classify", "classifiers.classify"),
    ("structures", "detect_pwip", "structures.pwip"),
    ("density", "upper_density_profile", "density.profile"),
    ("density", "density_pwip_experiment", "density.experiment"),
]

PACKAGE = "coarsesets"
MODULES = ("groups", "geometry", "recipes", "structures", "classifiers",
           "density", "budgets", "cli")


def _modules():
    return [sys.modules[f"{PACKAGE}.{name}"] for name in MODULES]


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s = Counter()     # name id -> summed self time
        self.calls = Counter()      # name id -> spans closed
        self.top_s = 0.0            # summed length of spans without a parent
        self.values = Counter()     # outcome counters, by metric name
        self.job = -1
        self._stack = []            # [span index, time covered by children]

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def push(self, name):
        index = len(self.span_start)
        self.span_name.append(self._id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_job.append(self.job)
        self.span_end.append(0.0)
        self._stack.append([index, 0.0])
        self.span_start.append(perf_counter())

    def pop(self):
        end = perf_counter()
        index, covered = self._stack.pop()
        self.span_end[index] = end
        length = end - self.span_start[index]
        name = self.span_name[index]
        self.self_s[name] += length - covered
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += length
        else:
            self.top_s += length

    def self_time(self, name):
        return self.self_s[self._ids[name]] if name in self._ids else 0.0

    def count(self, name):
        return self.calls[self._ids[name]] if name in self._ids else 0

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "name": self.span_name.tolist(),
                       "parent": self.span_parent.tolist(),
                       "job": self.span_job.tolist(),
                       "start": self.span_start.tolist(),
                       "end": self.span_end.tolist()}, fh)


def _span_name(name, args, kwargs):
    if name == "structures.pwip":
        depth = args[1] if len(args) > 1 else kwargs.get("depth", "?")
        return f"structures.pwip_d{depth}"
    return name


def _observe(tracer, name, result):
    if name == "classifiers.sparse":
        tracer.values["sparse_candidates"] += getattr(
            result, "candidates_checked", 0)
        tracer.values["sparse_hits"] += \
            getattr(result, "verdict", None) == "WITNESS_FOUND"
    elif name == "structures.pwip":
        tracer.values["pwip_found"] += result is not None


def _wrap(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.push(_span_name(name, args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.pop()
        _observe(tracer, name, result)
        return result
    return traced


class Patch:
    """Attribute replacements that ``undo`` reverts."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def install_spans(tracer):
    """Wrap every SPANS target.  A target the program no longer has is
    skipped, and its metric reads 0."""
    patch = Patch()
    modules = _modules()
    for module_name, attr, name in SPANS:
        home = sys.modules.get(f"{PACKAGE}.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(home, cls_name, None)
            if method in getattr(cls, "__dict__", {}):
                patch.set(cls, method,
                          _wrap(tracer, name, cls.__dict__[method]))
            continue
        original = getattr(home, attr, None)
        if original is None:
            continue
        wrapped = _wrap(tracer, name, original)
        for module in modules:
            if getattr(module, attr, None) is original:
                patch.set(module, attr, wrapped)
    return patch


def _counted(counts, op, fn):
    def counted(*args):
        counts[op] += 1
        return fn(*args)
    return counted


def install_op_counts(counts):
    """Count ``mul`` and ``inv`` into ``counts``, on every class below
    ``groups.Group`` that defines them."""
    todo = [sys.modules[f"{PACKAGE}.groups"].Group]
    patch = Patch()
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        for op in ("mul", "inv"):
            if op in cls.__dict__:
                patch.set(cls, op, _counted(counts, op, cls.__dict__[op]))
    return patch


def layer_metrics(tracer, job_s, op_counts, overhead_s):
    """Per-layer metrics from one traced pass and one counted pass."""
    s = tracer.self_time
    pwip = [f"structures.pwip_d{d}" for d in range(1, 5)]
    pwip_calls = sum(tracer.count(n) for n in pwip)
    sparse_calls = tracer.count("classifiers.sparse")
    out = {
        "cli.self_s": (job_s - tracer.top_s, "s"),
        "recipes.resolve_s": (s("recipes.resolve"), "s"),
        "recipes.resolve_calls": (tracer.count("recipes.resolve"), "count"),
        "groups.enumerate_window_s": (s("groups.enumerate_window"), "s"),
        "groups.word_ball_s": (s("groups.word_ball"), "s"),
        "groups.mul_calls": (op_counts["mul"], "count"),
        "groups.inv_calls": (op_counts["inv"], "count"),
        "geometry.restricted_ball_s": (s("geometry.restricted_ball"), "s"),
        "geometry.restricted_ball_calls":
            (tracer.count("geometry.restricted_ball"), "count"),
        "geometry.chain_partition_s": (s("geometry.chain_partition"), "s"),
        "geometry.chain_component_s": (s("geometry.chain_component"), "s"),
        "geometry.cellularity_s": (s("geometry.cellularity"), "s"),
        "geometry.thicken_s": (s("geometry.thicken"), "s"),
        "classifiers.thin_s": (s("classifiers.thin"), "s"),
        "classifiers.sparse_s": (s("classifiers.sparse"), "s"),
        "classifiers.sparse_candidates":
            (tracer.values["sparse_candidates"], "count"),
        "classifiers.sparse_hit_ratio":
            (tracer.values["sparse_hits"] / sparse_calls if sparse_calls
             else 0.0, "ratio"),
        "classifiers.isolated_s": (s("classifiers.isolated"), "s"),
        "classifiers.classify_self_s": (s("classifiers.classify"), "s"),
    }
    for d, name in enumerate(pwip, start=1):
        out[f"structures.pwip_d{d}_s"] = (s(name), "s")
    out["structures.pwip_calls"] = (pwip_calls, "count")
    out["structures.pwip_found_ratio"] = (
        tracer.values["pwip_found"] / pwip_calls if pwip_calls else 0.0, "ratio")
    out["density.profile_s"] = (s("density.profile"), "s")
    out["density.experiment_self_s"] = (s("density.experiment"), "s")
    accounted = sum(v for k, (v, unit) in out.items() if unit == "s")
    out["trace.job_s"] = (job_s, "s")
    out["trace.remainder_s"] = (job_s - accounted, "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
