"""Independent brute-force oracles used by the test suite.

Each oracle recomputes a verdict straight from the defining quantifier
string, sharing no code with the library implementations beyond the
group operations themselves.
"""

from __future__ import annotations

from functools import lru_cache


class DisjointSet:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def union_find_components(group, elements, radius_elements):
    """Components of the graph on `elements` with an edge x~y whenever
    y = k.x for k in the symmetrized radius."""
    elements = set(elements)
    K = set(radius_elements) | {group.inv(k) for k in radius_elements}
    dsu = DisjointSet(elements)
    for x in elements:
        for k in K:
            y = group.mul(k, x)
            if y in elements:
                dsu.union(x, y)
    comps = {}
    for x in elements:
        comps.setdefault(dsu.find(x), set()).add(x)
    return [frozenset(c) for c in comps.values()]


def brute_ball(group, g, radius_elements):
    return frozenset({group.mul(f, g) for f in radius_elements} | {g})


def pwip_exists_depth1(elements):
    return len(elements) >= 1


def pwip_exists_depth2(group, elements):
    """Slot assignment over products P(0), P(1), P(0,1): pick them as
    distinct sample elements, solve g_0 = P(0,1).P(1)^-1; g_1 and the
    shifts are then free."""
    elems = list(elements)
    if len(elems) < 3:
        return False
    # any 3 distinct elements work: the equations never conflict
    for p1 in elems:
        for p01 in elems:
            if p01 == p1:
                continue
            if any(x not in (p1, p01) for x in elems):
                return True
    return False


def pwip_exists_depth3(group, elements):
    """Exhaustive assignment of sample elements to the 7 product slots,
    with g_0, g_1 solved from the pair equations and the two remaining
    products checked by substitution."""
    elems = sorted(elements, key=group.sort_key)
    if len(elems) < 7:
        return False
    eset = set(elems)
    pairs = [(p2, p12, group.mul(p12, group.inv(p2)))
             for p2 in elems for p12 in elems if p12 != p2]
    for p1 in elems:
        for p01 in elems:
            if p01 == p1:
                continue
            g0 = group.mul(p01, group.inv(p1))
            for p2, p12, g1 in pairs:
                if g1 == g0:
                    continue
                p02 = group.mul(g0, p2)
                if p02 not in eset:
                    continue
                p012 = group.mul(g0, p12)
                if p012 not in eset:
                    continue
                chosen = {p1, p01, p2, p12, p02, p012}
                if len(chosen) != 6:
                    continue
                if any(x not in chosen for x in elems):
                    return True
    return False


def pwip_exists_by_levels(group, elements, depth):
    """Level-by-level assignment of sample elements to the 2^d - 1
    product slots.  Level j (1 <= j < d) picks P({j}) and P({j-1, j})
    in the sample and solves g_{j-1} = P({j-1, j}).P({j})^-1; every
    product P(S + {j}) = g_S.P({j}) over S <= {0..j-1}, with g_S the
    product of the g_i over S in increasing i, must then be a sample
    element not used so far.  g_{d-1} and the shifts are free, and
    P({0}) is any element left over."""
    elems = sorted(elements, key=group.sort_key)
    eset = set(elems)
    if len(elems) < 2 ** depth - 1:
        return False

    def place(vals, used):
        """The lazily computed ``vals`` as a list if they are distinct
        sample elements outside ``used``, else None."""
        out = []
        for v in vals:
            if v not in eset or v in used or v in out:
                return None
            out.append(v)
        return out

    def level(j, gens, used):
        if j == depth:
            return len(used) < len(elems)
        # g_S over S <= {0..j-2}, by the definition
        old = []
        for mask in range(2 ** (j - 1)):
            p = group.identity()
            for i, g in enumerate(gens):
                if mask >> i & 1:
                    p = group.mul(p, g)
            old.append(p)
        for x in elems:
            # the products without g_{j-1} do not depend on t
            low = place((group.mul(p, x) for p in old), used)
            if low is None:
                continue
            used_low = used.union(low)
            for t in elems:
                if t == x:
                    continue
                g = group.mul(t, group.inv(x))
                if g in gens:
                    continue
                high = place((group.mul(group.mul(p, g), x) for p in old),
                             used_low)
                if high is not None and level(j + 1, gens + [g],
                                              used_low.union(high)):
                    return True
        return False

    return level(1, [], frozenset())


def pwip_exists(group, elements, depth):
    if depth == 1:
        return pwip_exists_depth1(elements)
    if depth == 2:
        return pwip_exists_depth2(group, elements)
    if depth == 3:
        return pwip_exists_depth3(group, elements)
    if depth == 4:
        return pwip_exists_by_levels(group, elements, 4)
    raise ValueError("oracle supports depth 1..4")


def word_ball_families(group, scale):
    """The radii of the isolated-balls criterion at ``scale``, built from
    ``group.word_ball``: F = wordball(r) for r = 0..f_max, and for each F
    the enlargements H = wordball(r + t), t on the family's ladder."""
    radii = range(scale.f_max + 1)
    ladder = group.clamp_ladder(scale.ladder)
    return ([group.word_ball(r) for r in radii],
            [[group.word_ball(r + t) for t in ladder] for r in radii])


def isolated_balls_direct(group, elements, interior, f_family, h_families):
    """Literal quantifier string: exists F such that for every H the set
    {y interior : B_Y(y,H) subset of B_Y(y,F)} is nonempty.

    ``h_families`` maps each F index to its list of H radii.
    """
    elements = set(elements)

    def rball(y, radius_elements):
        return {group.mul(f, y) for f in radius_elements} & elements | (
            {y} if y in elements else set())

    for fi, F in enumerate(f_family):
        f_ok = True
        for H in h_families[fi]:
            found = False
            for y in interior:
                if rball(y, H) <= rball(y, F):
                    found = True
                    break
            if not found:
                f_ok = False
                break
        if f_ok:
            return "HAS_ISOLATED_BALLS"
    return "NO_ISOLATED_BALLS_AT_SCALE"


@lru_cache(maxsize=None)
def bfs_word_ball(group, r):
    """Elements of word length <= r, built by breadth-first search over
    ``group.generators()``."""
    seen = {group.identity()}
    frontier = [group.identity()]
    for _ in range(r):
        frontier = {group.mul(g, x) for x in frontier
                    for g in group.generators()} - seen
        seen |= frontier
    return frozenset(seen)


def least_word_ball_radius(group, points, center, r_max):
    """The first r in 1..r_max whose built word ball W holds every point
    in W.center, or None."""
    for r in range(1, r_max + 1):
        ball = bfs_word_ball(group, r)
        if all(group.mul(p, group.inv(center)) in ball for p in points):
            return r
    return None


def cellularity_direct(group, elements, interior, radius_elements, r_max):
    """(verdict, found radius, offender) of the cellularity probe: the
    chain component of each interior point, in order, must lie in a word
    ball of radius <= r_max around it."""
    comp_of = {x: comp for comp in
               union_find_components(group, elements, radius_elements)
               for x in comp}
    needed = 1
    for a in interior:
        r = least_word_ball_radius(group, comp_of[a], a, r_max)
        if r is None:
            return "NOT_CELLULAR_AT_SCALE", None, a
        needed = max(needed, r)
    return "CELLULAR_AT_SCALE", f"wordball:{needed}", None


def prec_direct(group, mapping, interior, radius_elements, r_max):
    """(verdict, found radius, witness) of the mapping check: the first
    r in 1..r_max with f(B_X(x,F)) inside B(f(x), wordball(r)) for every
    interior x; else the first x that fails at r_max."""
    X = set(mapping)
    for r in range(1, r_max + 1):
        failing = [x for x in interior if least_word_ball_radius(
            group, [mapping[x2] for x2 in brute_ball(group, x, radius_elements) & X],
            mapping[x], r) is None]
        if not failing:
            return "PREC", f"wordball:{r}", None
    return "NOT_PREC", None, failing[0]


def window_interior(group, extent, el, margin):
    """Whether el is interior to the window of ``extent`` at ``margin``,
    one element at a time: on z^d the box holds the margin ball iff
    max|el_i| + margin <= extent; on z2sum every mask of the window is
    interior; on z and free:k the window is the word ball of radius
    extent, which holds the margin ball iff |el| + margin <= extent."""
    if group.spec.startswith("z^"):
        return max(abs(x) for x in el) + margin <= extent
    if group.spec.startswith("z2sum:"):
        return el >> extent == 0
    return group.norm(el) + margin <= extent


def box_interior(ordered, extent, margin):
    """The points of ``ordered`` (tuples of ints) whose every coordinate
    has absolute value at most extent - margin, in their order, one
    point and one coordinate at a time."""
    return tuple(y for y in ordered
                 if all(abs(c) + margin <= extent for c in y))


def cantor_by_digit_filter(levels):
    """The elements of the ``levels``-level Cantor-geodesic set: every
    index 0..3^n of block n, kept when no base-3 digit is 1."""

    def no_one_digits(i):
        while i:
            if i % 3 == 1:
                return False
            i //= 3
        return True

    out, start = set(), 0
    for n in range(1, levels + 1):
        out.update(start + i for i in range(3 ** n + 1) if no_one_digits(i))
        # block n spans 3^n and is followed by a gap of 2 * 3^(n+1)
        start += 3 ** n + 2 * 3 ** (n + 1)
    return frozenset(out)


def thin_degree_by_loop(sample, radius_elements, margin):
    """(degree, exceptional tuple, interior size) of the thin degree,
    trying n = 1, 2, ... in turn: the least n whose exceptional sets
    {y interior : |B_Y(y, F)| > n} in the sample and in ``sample.outer``
    are equal.  Interiors are filtered one element at a time and ball
    sizes counted from the built balls."""
    group = sample.group

    def sizes(s):
        inside = [y for y in s.elements if s.window is None
                  or window_interior(group, s.window, y, margin)]
        return {y: len(brute_ball(group, y, radius_elements) & s.elements)
                for y in inside}

    inner, outer = sizes(sample), sizes(sample.outer)
    n = 1
    while True:
        exc_in = {y for y, s in inner.items() if s > n}
        if exc_in == {y for y, s in outer.items() if s > n}:
            return (n, tuple(sorted(exc_in, key=group.sort_key)),
                    len(inner))
        n += 1
