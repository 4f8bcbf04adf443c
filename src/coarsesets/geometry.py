"""Metric-free combinatorial primitives over group samples.

Balls here follow the left-translation convention: the ball of radius F
(a finite subset of the group) around g is F.g together with g itself.
Chain components, cellularity probing and mapping checks are all built
from that single primitive; verdicts that only compare ball sizes count
them in bulk through ``ball_sizes``, without building a ball.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import GroupError, word_ball_elements


@dataclass(frozen=True)
class Radius:
    """A finite 'radius' set F together with a printable label."""

    group: object
    elements: frozenset
    label: str | None = None

    def __post_init__(self):
        for el in self.elements:
            self.group.validate(el)

    def is_symmetric(self):
        g = self.group
        return all(g.inv(el) in self.elements for el in self.elements)

    def symmetrize(self):
        if self.is_symmetric():
            return self
        g = self.group
        elems = frozenset(self.elements) | frozenset(g.inv(el) for el in self.elements)
        label = f"sym({self.label})" if self.label else None
        return Radius(g, elems, label)

    def thicken(self, r):
        """F enlarged to wordball(r).(F u {e}); contains F and wordball(r)."""
        g = self.group
        wb = word_ball_elements(g, r)
        base = set(self.elements) | {g.identity()}
        out = g.products(wb, base)
        label = f"{self.label or 'set'}+wordball:{r}"
        return Radius(g, frozenset(out), label)

    def sorted_elements(self):
        return sorted(self.elements, key=self.group.sort_key)

    def describe(self):
        return self.label or "{" + ",".join(
            self.group.render(e) for e in self.sorted_elements()) + "}"


def word_radius(group, r):
    return Radius(group, word_ball_elements(group, r), f"wordball:{r}")


def ball(group, g, radius):
    """B(g, F) = F.g u {g}."""
    if radius.group != group:
        raise GroupError("radius belongs to a different group")
    out = group.products(radius.elements, (g,))
    out.add(g)
    return frozenset(out)


def restricted_ball(sample, g, radius):
    """B_Y(g, F) = Y n B(g, F); g need not lie in Y."""
    return ball(sample.group, g, radius) & sample.elements


def ball_sizes(universe, points, radius):
    """{y: |B_Y(y, F)|} for every y in ``points`` (which need not lie in
    Y), Y the universe sample's set; no ball is built."""
    group = universe.group
    if radius.group != group:
        raise GroupError("radius belongs to a different group")
    steps = radius.elements | {group.identity()}
    return group.ball_sizes(universe, points, steps)


def chain_component(sample, a, radius):
    """All b in A reachable from a by K-chains inside A (K symmetrized)."""
    if a not in sample.elements:
        raise GroupError("chain start element not in the sample")
    return sample.group.chain_component(sample.elements, a,
                                        radius.symmetrize().elements)


def chain_partition(sample, radius):
    """Chain components of the whole sample, as a list of frozensets
    ordered by their least elements."""
    return sample.group.chain_partition(sample, radius.symmetrize().elements)


@dataclass(frozen=True)
class CellularityReport:
    k_label: str
    verdict: str                      # CELLULAR_AT_SCALE | NOT_CELLULAR_AT_SCALE
    kprime_label: str | None
    offender: object | None
    interior_size: int
    searched_max_radius: int
    symmetrized: bool

    def to_json_dict(self, group):
        return {
            "kind": "cellularity",
            "radius": self.k_label,
            "verdict": self.verdict,
            "found_radius": self.kprime_label,
            "offender": None if self.offender is None else group.render(self.offender),
            "interior_size": str(self.interior_size),
            "searched_max_radius": str(self.searched_max_radius),
            "symmetrized": self.symmetrized,
        }


def cellularity_probe(sample, radius, scale):
    """Smallest budget word ball K' containing every interior chain
    component, or the element whose component escapes the budget."""
    if not sample.elements:
        raise GroupError("cellularity probe needs a nonempty sample")
    group = sample.group
    interior = sample.interior(scale.margin_for(group))
    if not interior:
        raise GroupError("interior empty at the requested margin")
    sym = radius.is_symmetric()
    comps = chain_partition(sample, radius)
    comp_of = {}
    for comp in comps:
        for el in comp:
            comp_of[el] = comp
    best_needed = 0
    offender = None
    radii = {}                        # word radius r, built on first use
    for a in interior:
        comp = comp_of[a]
        needed = None
        for r in range(1, scale.kprime_max + 1):
            if r not in radii:
                radii[r] = word_radius(group, r)
            if comp <= ball(group, a, radii[r]):
                needed = r
                break
        if needed is None:
            offender = a
            break
        best_needed = max(best_needed, needed)
    if offender is not None:
        return CellularityReport(radius.describe(), "NOT_CELLULAR_AT_SCALE", None,
                                 offender, len(interior), scale.kprime_max, sym)
    kprime = f"wordball:{max(best_needed, 1)}"
    return CellularityReport(radius.describe(), "CELLULAR_AT_SCALE", kprime,
                             None, len(interior), scale.kprime_max, sym)


@dataclass(frozen=True)
class PrecReport:
    f_label: str
    verdict: str                      # PREC | NOT_PREC
    k_label: str | None
    witness: object | None
    interior_size: int

    def to_json_dict(self, domain_group):
        return {
            "kind": "prec-mapping",
            "radius": self.f_label,
            "verdict": self.verdict,
            "found_radius": self.k_label,
            "witness": None if self.witness is None else domain_group.render(self.witness),
            "interior_size": str(self.interior_size),
        }


def prec_mapping_check(mapping, domain, radius, scale, codomain=None):
    """Verify f(B_X(x,F)) <= B(f(x),K) for the smallest budget word ball K.

    ``mapping`` is a finite dict of elements; ``domain`` the FiniteSample
    it is defined on.  The codomain group defaults to the domain group.
    """
    group = domain.group
    cod = codomain or group
    if not set(mapping) <= domain.elements:
        raise GroupError("mapping domain is not inside the declared sample")
    X = frozenset(mapping)
    interior = [x for x in domain.interior(scale.margin_for(group))
                if x in X]
    if not interior:
        raise GroupError("interior empty at the requested margin")

    def offender(K):
        """The first interior x with f(B_X(x,F)) outside B(f(x),K)."""
        for x in interior:
            target = ball(cod, mapping[x], K)
            if any(mapping[x2] not in target for x2 in ball(group, x, radius) & X):
                return x
        return None

    for r in range(1, scale.kprime_max + 1):
        witness = offender(word_radius(cod, r))
        if witness is None:
            return PrecReport(radius.describe(), "PREC", f"wordball:{r}",
                              None, len(interior))
    return PrecReport(radius.describe(), "NOT_PREC", None, witness, len(interior))
