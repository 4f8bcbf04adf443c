"""Metric-free combinatorial primitives over group samples.

The ball of radius F (a finite subset of the group) around g is the
right translate F.g together with g itself, built by
``Group.right_translates``; left translates g.X go through
``Group.translates`` alone.  Mapping
checks are built from ``ball``; verdicts that only compare ball sizes
count them in bulk through ``Group.ball_sizes``, chain components come
from ``Group.chain_component``, and ``reach`` reads the least word ball
holding a set off word lengths, none of them building a ball.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

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
        """The frozenset F u F^-1."""
        return self.elements.union(map(self.group.inv, self.elements))

    def describe(self):
        return self.label or "{" + ",".join(
            map(self.group.render, self.group.sorted(self.elements))) + "}"


def word_radius(group, r):
    return Radius(group, word_ball_elements(group, r), f"wordball:{r}")


def ball(group, g, radius):
    """B(g, F) = F.g u {g}."""
    if radius.group != group:
        raise GroupError("radius belongs to a different group")
    return frozenset([*group.right_translates(radius.elements, g), g])


def restricted_ball(sample, g, radius):
    """B_Y(g, F) = Y n B(g, F); g need not lie in Y."""
    return ball(sample.group, g, radius) & sample.elements


def reach(group, points, center):
    """The least r with every point in wordball(r).center: the largest
    norm of p.center^-1, or infinity when one lies in no word ball."""
    quotients = list(group.right_translates(points, group.inv(center)))
    if not group.word_balls_cover(quotients):
        return inf
    return max(map(group.norm, quotients))


def chain_component(sample, a, radius):
    """All b in A reachable from a by K-chains inside A (K symmetrized)."""
    if a not in sample.elements:
        raise GroupError("chain start element not in the sample")
    return sample.group.chain_component(sample.elements, a,
                                        radius.symmetrize())


def chain_partition(sample, radius):
    """Chain components of the whole sample, as a list of frozensets
    ordered by their least elements."""
    return sample.group.chain_partition(sample, radius.symmetrize())


@dataclass(frozen=True)
class CellularityReport:
    k_label: str
    verdict: str                      # CELLULAR_AT_SCALE | NOT_CELLULAR_AT_SCALE
    kprime_label: str | None
    offender: object | None
    interior_size: int
    searched_max_radius: int
    symmetrized: bool                 # the typed radius was already
                                      # symmetric: the chain used it as is

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
    needed = 1
    for a in interior:
        r = reach(group, comp_of[a], a)
        if r > scale.f_max:
            return CellularityReport(radius.describe(), "NOT_CELLULAR_AT_SCALE",
                                     None, a, len(interior), scale.f_max, sym)
        needed = max(needed, r)
    return CellularityReport(radius.describe(), "CELLULAR_AT_SCALE",
                             f"wordball:{needed}", None, len(interior),
                             scale.f_max, sym)


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
    needed = 1
    for x in interior:
        images = [mapping[x2] for x2 in ball(group, x, radius) & X]
        r = reach(cod, images, mapping[x])
        if r > scale.f_max:
            return PrecReport(radius.describe(), "NOT_PREC", None, x,
                              len(interior))
        needed = max(needed, r)
    return PrecReport(radius.describe(), "PREC", f"wordball:{needed}",
                      None, len(interior))
