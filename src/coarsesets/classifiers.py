"""Budgeted verdicts for the set classes: thin degree, sparse witnesses,
and the isolated-balls criterion.

Every verdict is "at scale": quantifiers over all finite radii are
truncated to the Scale's families, and "finite" means window-stable
(the quantity is identical when the sample is regenerated in an
enlarged window).  Verdicts are evidence, never proof; each report
carries the scale it was computed at.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, compress, count, islice, repeat
from operator import is_, not_

from . import structures
from .groups import FiniteSample, GroupError, word_ball_elements


@dataclass(frozen=True)
class ThinReport:
    """A thin degree; ``stable`` is a class constant, true, as the degree
    is by construction an n at which the two windows' exceptional sets
    agree."""

    f_label: str
    degree: int
    exceptional: tuple
    interior_size: int
    stable = True

    def to_json_dict(self, group):
        return {
            "kind": "thin",
            "radius": self.f_label,
            "degree": str(self.degree),
            "exceptional": [group.render(y) for y in self.exceptional],
            "interior_size": str(self.interior_size),
            "stable": self.stable,
        }


def _thin_reports(windows, sized):
    """One ThinReport per (label, inner sizes, outer sizes) of ``sized``,
    the F-ball sizes of the two ``windows``' interiors at one radius F.

    The degree is the least n >= 1 whose exceptional set (interior points
    with F-ball larger than n) is identical across the two windows.  With
    a and b a point's sizes in the two windows, n is at least the size of
    every point interior to one window only, and lies outside
    [min(a, b), max(a, b)) for every point interior to both with a != b.
    Sweeping those intervals in order of their lower ends moves n past
    each one that holds it, and the exceptional set is built at that n
    alone.  The windows are joined by point once, for every radius, from
    a dict of the inner interior: the outer one is the larger, up to
    4^d times as large on z^d."""
    (_, inner), (_, outer) = windows
    where = dict(zip(inner, count()))
    hits = list(map(where.get, outer))
    outer_only = list(map(is_, hits, repeat(None)))
    shared_j = list(compress(count(), map(not_, outer_only)))
    shared_i = list(map(hits.__getitem__, shared_j))
    inner_only = set(range(len(inner))).difference(shared_i)
    for label, a, b in sized:
        n = max(chain((1,), map(a.__getitem__, inner_only),
                      compress(b, outer_only)))
        gaps = sorted((min(x, y), max(x, y)) for x, y in zip(
            map(a.__getitem__, shared_i), map(b.__getitem__, shared_j))
            if x != y)
        for lo, hi in gaps:
            if lo > n:
                break
            n = max(n, hi)
        yield ThinReport(label, n, tuple(compress(inner, map(n.__lt__, a))),
                         len(inner))


def thin_degree(sample, radius, scale, upto=None):
    """The thin degree of the sample at the radius F (see
    ``_thin_reports``), comparing the sample with its enlarged window at
    the scale's margin: the steps F u {e} are sized by one ``ball_sizes``
    pass per window.  The two windows' exceptional sets agree at the
    degree, so the report is always ``stable``.

    ``classify`` passes ``upto`` = R and no radius: the same degree sweep
    then runs over every word radius 0..R, sized by one
    ``Group.ball_size_sweep`` per window, and returns the list of reports
    with the inner window's size lists, which the isolated-balls verdict
    reads F from."""
    if not sample.elements:
        raise GroupError("thin degree needs a nonempty sample")
    group = sample.group
    if upto is None and radius.group != group:
        raise GroupError("radius belongs to a different group")
    margin = scale.margin_for(group)
    interior = sample.interior(margin)
    if not interior:
        raise GroupError("window too small for the interior margin")
    outer = sample.outer
    windows = (sample, interior), (outer, outer.interior(margin))
    if upto is None:
        steps = radius.elements | {group.identity()}
        [report] = _thin_reports(windows, [(radius.describe(), *(
            group.ball_sizes(window, points, steps)
            for window, points in windows))])
        return report
    tables = group.ball_size_sweep(windows, upto)
    labels = (f"wordball:{r}" for r in range(upto + 1))
    return list(_thin_reports(windows, zip(labels, *tables))), tables[0]


@dataclass(frozen=True)
class SparseReport:
    verdict: str             # WITNESS_FOUND | NO_WITNESS_AT_SCALE
    witness: tuple | None    # chosen F, subset of X
    intersection: tuple
    intersection_size: int | None
    candidates_checked: int

    def to_json_dict(self, group):
        return {
            "kind": "sparse",
            "verdict": self.verdict,
            "witness": None if self.witness is None
            else [group.render(x) for x in self.witness],
            "intersection": [group.render(x) for x in self.intersection[:32]],
            "intersection_size": None if self.intersection_size is None
            else str(self.intersection_size),
            "candidates_checked": str(self.candidates_checked),
        }


def sparse_witness(sample, xset, scale):
    """Smallest F inside X whose translate intersection with the sample
    is window-stable-finite.

    Candidates are the first ``pool_cap`` subsets of X of 1 to 3
    elements (size, then lexicographic), drawn from a deterministically
    capped pool.
    Stability compares the intersection size against the sample
    regenerated in the enlarged window.  By left invariance,
    n_{g in F} gA = F[0].(A n n_{g in F[1:]} (F[0]^-1.g)A), so both sizes
    depend only on the quotients F[0]^-1.g and are counted once per
    quotient tuple, by one ``Group.overlap_counter`` per window; only the
    winning F builds and translates its intersection.
    """
    group = sample.group
    if xset.group != group:
        raise GroupError("X belongs to a different group")
    if not xset.elements:
        raise GroupError("sparse witness needs a nonempty X")
    pool = xset.ordered[: max(scale.pool_cap // 16, 8)]
    counters = (group.overlap_counter(sample.elements),
                group.overlap_counter(sample.outer.elements))
    sizes = {}                  # quotients -> (inner, outer) size
    candidates = islice(chain.from_iterable(
        combinations(pool, k) for k in (1, 2, 3)), scale.pool_cap)
    for checked, F in enumerate(candidates, 1):
        head = group.inv(F[0])
        key = tuple(group.translates(head, F[1:]))
        if key not in sizes:
            sizes[key] = tuple(count(key) for count in counters)
        inner_n, outer_n = sizes[key]
        if inner_n != outer_n:
            continue
        inner_i = list(group.translates(
            F[0], group.overlap(sample.elements, key)))
        return SparseReport("WITNESS_FOUND", F,
                            tuple(group.sorted(inner_i)),
                            len(inner_i), checked)
    return SparseReport("NO_WITNESS_AT_SCALE", None, (), None, checked)


@dataclass(frozen=True)
class IsolatedBallsReport:
    verdict: str             # HAS_ISOLATED_BALLS | NO_ISOLATED_BALLS_AT_SCALE
    winning_f: str | None
    isolated_counts: tuple   # (h_label, count) pairs for the winning F
    sample_isolated: tuple   # isolated elements for the winning F, last H
    refutations: tuple       # (f_label, h_label) pairs for negative verdict
    interior_size: int
    scale_name: str
    universe: str

    def to_json_dict(self, group):
        return {
            "kind": "isolated-balls",
            "verdict": self.verdict,
            "winning_radius": self.winning_f,
            "isolated_counts": [
                {"enlargement": h, "count": str(c)} for h, c in self.isolated_counts],
            "isolated_sample": [group.render(y) for y in self.sample_isolated[:16]],
            "refutations": [
                {"radius": f, "enlargement": h} for f, h in self.refutations],
            "interior_size": str(self.interior_size),
            "scale": self.scale_name,
            "universe": self.universe,
        }


def isolated_balls_verdict(sample, scale, ambient=None, sized=()):
    """Existence of a radius F whose every budget enlargement H leaves
    some interior point with an empty H-minus-F ball.

    ``ambient`` switches the ball universe from the sample itself to a
    supplied superset.  ``sized`` holds the interior's size lists in the
    universe at word radii 0, 1, ..., already counted (``classify``'s
    thin sweep); the verdict sizes only the radii past them.
    """
    group = sample.group
    universe = sample if ambient is None else ambient
    if universe.group != group:
        raise GroupError("ambient set belongs to a different group")
    if ambient is not None and not sample.elements <= ambient.elements:
        raise GroupError("sample must lie inside the ambient set")
    margin = scale.margin_for(group)
    interior = sample.interior(margin)
    if not interior:
        raise GroupError("interior empty at the requested margin")
    refutations = []
    universe_name = "SAMPLE" if ambient is None else "AMBIENT"
    rungs = group.clamp_ladder(scale.ladder)
    # the interior's ball sizes by word radius.  F = wordball(r) asks for
    # r and r + t (t a rung), so a radius is dropped once no later F can
    # ask for it, and each is sized once: every ladder starts at t = 1,
    # so F(r), sized as the first H of r - 1, is read back
    table = dict(enumerate(sized))

    def sizes(s):
        if s not in table:
            table[s] = group.ball_sizes(universe, interior,
                                        word_ball_elements(group, s))
        return table[s]

    for r in range(scale.f_max + 1):
        f_label = f"wordball:{r}"
        f_sizes = sizes(r)
        counts = []
        for t in rungs:
            # H = wordball(r + t) contains F = wordball(r), so
            # B_Y(y,F) <= B_Y(y,H), and B_Y(y,H) <= B_Y(y,F) holds
            # exactly when the two sizes agree.  No H past the first
            # that refutes F is built.
            h_label = f"{f_label}+wordball:{t}"
            isolated = [y for y, h, f in zip(interior, sizes(r + t), f_sizes)
                        if h == f]
            counts.append((h_label, len(isolated)))
            if not isolated:
                refutations.append((f_label, h_label))
                break
        else:
            return IsolatedBallsReport(
                "HAS_ISOLATED_BALLS", f_label, tuple(counts), tuple(isolated),
                (), len(interior), scale.name, universe_name)
        for s in [s for s in table if not any(
                r < s - t <= scale.f_max for t in (0, *rungs))]:
            del table[s]
    return IsolatedBallsReport(
        "NO_ISOLATED_BALLS_AT_SCALE", None, (), (), tuple(refutations),
        len(interior), scale.name, universe_name)


def _largest_cluster(sample, scale):
    """Largest chain component at the margin word radius; of equal ones,
    the first, which ``chain_partition`` orders by least element."""
    group = sample.group
    steps = word_ball_elements(group, scale.margin_for(group))
    best = max(group.chain_partition(sample, steps), key=len)
    return FiniteSample(group, best, sample.window, None)


def classify(sample, scale):
    """Combined report: thin degree over the F-family, sparse probes on
    X = A and on the largest cluster, the isolated-balls verdict, and
    the maximal pwip depth found within budget."""
    group = sample.group
    out = {
        "kind": "classify",
        "group": group.spec,
        "size": str(len(sample)),
        "scale": scale.name,
    }
    if not sample.elements:
        out.update({
            "thin": {"degree": "0", "per_radius": []},
            "sparse": {"verdict": "WITNESS_FOUND", "probes": []},
            "isolated_balls": {"verdict": "HAS_ISOLATED_BALLS"},
            "pwip": {"max_depth": "0", "witness": None},
            "consistent": True,
        })
        return out

    # the isolated-balls verdict reads its F and first H off the thin
    # sweep's inner lists
    reports, inner = thin_degree(sample, None, scale, upto=scale.f_max)
    out["thin"] = {"degree": str(max(rep.degree for rep in reports)),
                   "per_radius": [rep.to_json_dict(group) for rep in reports]}

    cluster = _largest_cluster(sample, scale)
    full = sparse_witness(sample, sample, scale)
    # the cluster lies in A, so equal sizes mean X = A: reuse the probe
    largest = (full if len(cluster) == len(sample)
               else sparse_witness(sample, cluster, scale))
    both = full.verdict == largest.verdict == "WITNESS_FOUND"
    out["sparse"] = {
        "verdict": "WITNESS_FOUND" if both else "NO_WITNESS_AT_SCALE",
        "probes": [{"x": "full", **full.to_json_dict(group)},
                   {"x": "largest-cluster", **largest.to_json_dict(group)}]}

    iso = isolated_balls_verdict(sample, scale, sized=inner)
    out["isolated_balls"] = iso.to_json_dict(group)

    max_depth, witness = structures.deepest_pwip(sample, scale.max_depth, scale)
    out["pwip"] = {
        "max_depth": str(max_depth),
        "witness": witness.to_json_dict() if witness else None,
    }

    has = iso.verdict == "HAS_ISOLATED_BALLS"
    expected = (has and max_depth < scale.max_depth) or \
        (not has and max_depth == scale.max_depth)
    out["consistent"] = expected
    return out
