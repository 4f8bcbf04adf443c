"""Canonical witness sets and the piecewise-shifted-IP detector.

The finite-products set of an injective generator sequence, its shifted
variant (each product multiplied on the right by the shift indexed by
the largest factor), the bounded-support subsets of the restricted Z/2
sum, and the base-3 geodesic set whose kept indices have no digit 1.

The detector solves for generators and shifts directly from candidate
product assignments inside the target set, so its search space is the
set's own elements and their quotients.  One depth-first walk down the
paper's descending chain serves both entry points: ``deepest_pwip``
keeps the deepest witness it completes, and ``detect_pwip`` is its
exact-depth case.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import compress

from . import budgets
from .groups import (FiniteSample, GroupError, IntGroup, XorGroup,
                     word_ball_elements)

MAX_GENERATORS = 20


def _subset_products(group, gens):
    """Products over the index subsets of gens, by prefix doubling.

    Entry m is the product of gens[i] over the set bits i of m, in
    increasing i; so entry 0 is the identity, and entries 2^j to
    2^(j+1) - 1 are the subsets whose largest index is j.
    """
    prods = [group.identity()]
    for g in gens:
        # a list first: the lazy translates read ``prods`` as it grows
        prods += list(group.right_translates(prods, g))
    return prods


def _indices(mask):
    """The increasing index tuple of the set bits of mask."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def gen_ip(group, gens):
    """All products over nonempty increasing index subsets of gens."""
    gens = tuple(gens)
    return gen_pwip(group, gens, (group.identity(),) * len(gens))


def gen_pwip(group, gens, shifts):
    """Shifted products: each gens-product is multiplied on the right by
    the shift indexed by its largest factor."""
    gens = tuple(gens)
    shifts = tuple(shifts)
    if len(gens) != len(shifts):
        raise GroupError("generators and shifts must have equal length")
    if not gens:
        raise GroupError("need at least one generator")
    if len(gens) > MAX_GENERATORS:
        raise GroupError(f"at most {MAX_GENERATORS} generators")
    for g in gens:
        group.validate(g)
    if len(set(gens)) != len(gens):
        raise GroupError("generator sequence must be injective")
    for b in shifts:
        group.validate(b)
    # layer j holds the products whose largest index is j, merged as
    # they are built: L_j = P_j.g_j and P_{j+1} = P_j | L_j.
    prods = {group.identity()}
    out = set()
    for g, b in zip(gens, shifts):
        layer = set(group.right_translates(prods, g))
        out.update(group.right_translates(layer, b))
        prods |= layer
    return FiniteSample(group, frozenset(out))


def gen_wn(m, n):
    """Bit vectors on m coordinates with support at most n."""
    if not 0 <= n <= m <= 24:
        raise GroupError("need 0 <= n <= m <= 24")
    group = XorGroup(m)
    return FiniteSample(group, word_ball_elements(group, n), m)


CANTOR_WINDOW_MARGIN = 128


def cantor_offsets(levels):
    """Block offsets: each block of length 3^n is separated from the next
    by more than 2 * 3^(n+1)."""
    offs = [0]
    for n in range(1, levels):
        offs.append(offs[-1] + 3 ** n + 2 * 3 ** (n + 1))
    return offs


def cantor_extent(levels):
    """Window extent of the ``levels``-level set: its last block plus
    ``CANTOR_WINDOW_MARGIN``."""
    if not 1 <= levels <= 12:
        raise GroupError("levels must be in 1..12")
    return cantor_offsets(levels)[-1] + 3 ** levels + CANTOR_WINDOW_MARGIN


def cantor_levels_for_window(extent):
    """Largest level count whose last block still fits the window."""
    return max((n for n in range(1, 13) if cantor_extent(n) <= extent),
               default=1)


def gen_cantor_geodesic(levels):
    """Union of geodesic blocks keeping only indices whose base-3 digits
    avoid 1; block n contributes 2^n points, the sums of digits 0 or 2
    at places 0..n-1, built a place at a time."""
    extent = cantor_extent(levels)
    offs = cantor_offsets(levels)
    indices = [0]
    out = set()
    for n in range(1, levels + 1):
        indices += [i + 2 * 3 ** (n - 1) for i in indices]
        out.update(offs[n - 1] + i for i in indices)
    return FiniteSample(IntGroup(), frozenset(out), extent)


@dataclass(frozen=True)
class PwipWitness:
    """Depth-d witness: injective generators, shifts, and the 2^d - 1
    realized products tagged with their index sets."""

    group: object
    depth: int
    gens: tuple
    shifts: tuple
    products: tuple          # ((indices, element), ...) sorted by indices

    def validate(self, target):
        """Re-derive every product from gens/shifts and re-check all
        witness invariants against the target set."""
        g = self.group
        if len(self.gens) != self.depth or len(self.shifts) != self.depth:
            return False
        if len(set(self.gens)) != self.depth:
            return False
        prods = _subset_products(g, self.gens)
        derived = {_indices(m): g.mul(p, self.shifts[m.bit_length() - 1])
                   for m, p in enumerate(prods) if m}
        claimed = dict(self.products)
        if set(claimed) != set(derived):
            return False
        if any(claimed[idx] != derived[idx] for idx in derived):
            return False
        values = list(derived.values())
        if len(set(values)) != len(values):
            return False
        return all(v in target for v in values)

    def to_json_dict(self):
        g = self.group
        return {
            "depth": str(self.depth),
            "generators": [g.render(x) for x in self.gens],
            "shifts": [g.render(x) for x in self.shifts],
            "products": [
                {"indices": [str(i) for i in idx], "value": g.render(v)}
                for idx, v in self.products
            ],
        }


def _chain_step(group, cands, members, g):
    """The next chain set A & g^-1.A of the candidate list A, whose
    elements are the set ``members``: the x in A with g.x in A, in the
    order of A, in one pass of the family's ``translates`` kernel.  A
    search node makes at most |A| of these passes (``_chain_sets``)."""
    return list(compress(cands, map(members.__contains__,
                                    group.translates(g, cands))))


def _chain_sets(group, cands, pool):
    """g -> ``_chain_step(group, cands, frozenset(cands), g)`` for g in
    the set ``pool``.  The first |A| calls scan A, one pass each; the
    next builds the table of every pair once, at about the cost of those
    |A| passes: for each x in A, in order, x joins the list of every pool
    element g with g.x in A, that is g in A.x^-1.  Later calls read the
    table.  So a node that hits within a few steps builds none, and one
    that runs to exhaustion pays at most about twice the table's cost."""
    members = frozenset(cands)
    scans = len(cands)
    table = None

    def chain_set(g):
        nonlocal scans, table
        if scans:
            scans -= 1
            return _chain_step(group, cands, members, g)
        if table is None:
            table = defaultdict(list)
            for x in cands:
                for h in pool.intersection(
                        group.right_translates(cands, group.inv(x))):
                    table[h].append(x)
        return table.get(g, [])

    return chain_set


def detect_pwip(sample, depth, scale=None):
    """Exact-depth witness search inside the sample, or None: the
    depth-``depth`` witness of ``deepest_pwip``'s walk, which stops
    short of that depth when there is none.

    The 2^d - 1 products are picked in the sample consistently with the
    product equations; generators are solved from them and must fall in
    the quotient pool: the scale's ``pool_cap`` quotients of smallest
    (norm, sort_key) (the large preset's cap when no scale is given).
    """
    if depth < 1:
        raise GroupError("depth must be >= 1")
    # 2^depth - 1 > |A|, without building 2^depth: no walk gets there
    if depth >= (len(sample) + 1).bit_length():
        return None
    reached, witness = deepest_pwip(sample, depth, scale)
    return witness if reached == depth else None


def deepest_pwip(sample, max_depth, scale):
    """(d, witness) for the largest d <= max_depth with a witness, or
    (0, None), from one depth-first walk down the chain.  A branch that
    completes depth d + 1 has completed depth d, so the walk keeps the
    first witness it completes at each new depth.  It stops at
    ``max_depth``, at the room for 2^d - 1 distinct products, at the
    pool size (a depth-d witness takes d distinct pool elements), or
    when no branch goes deeper."""
    group = sample.group
    ordered = sample.ordered
    top = min(max_depth, (len(ordered) + 1).bit_length() - 1)
    scale = scale or budgets.preset("large")
    pool_list = group.quotient_pool(ordered, scale.pool_cap) if top > 0 else []
    top = min(top, len(pool_list))
    if top < 1:
        return 0, None
    pool = frozenset(pool_list)
    mul = group.mul
    best = [], []                # gens and products of the deepest so far

    def translate(prefix, x, taken):
        """The products p.x over the prefix, or None if one is taken.
        They lie in the sample because x is a candidate, and they are
        distinct because the prefix products are: their translates at
        the previous stage filled two disjoint parts."""
        out = []
        for p in prefix:
            v = mul(p, x)
            if v in taken:
                return None
            out.append(v)
        return out

    # Stage j picks x = P({j}) and t = P({j-1, j}), which fixes
    # g_{j-1} = t.x^-1 in the pool and, by translating the products over
    # subsets of {0..j-2}, every product whose largest index is j.
    # ``found`` holds those products in subset-mask order from mask 2
    # on, so each pair picked at stage j completes a depth-(j+1) witness.
    # Both x and t come from ``cands``, the chain set A_j of the sample
    # elements whose prefix translates all lie in the sample; every
    # element left out would fail ``translate``.  The generator g picked
    # at stage j shrinks it to A_{j+1} = A_j & g^-1.A_j through the
    # node's ``chain_set`` (a scan per g, then a pair table).  The stage
    # that completes depth ``top`` takes no chain step: its first pair
    # ends the walk.  A child needs 3 elements of A_{j+1}: its x and t
    # differ, and both differ from this stage's x, which lies in A_{j+1}
    # (g.x = t is in A_j) and is already taken.
    def extend(stage, gens, found, cands):
        """True once the walk has its depth-``top`` witness."""
        nonlocal best
        taken = set(found)
        prefix = _subset_products(group, gens)
        fresh = len(best[0]) < stage     # no depth-(stage+1) witness yet
        deeper = stage + 1 < top
        chain_set = _chain_sets(group, cands, pool) if deeper else None
        for xj in cands:
            part1 = translate(prefix, xj, taken)
            if part1 is None:
                continue
            taken1 = taken.union(part1)
            xj_inv = group.inv(xj)
            for t in cands:
                gj = mul(t, xj_inv)
                if gj not in pool or gj in gens:
                    continue
                part2 = translate(prefix, t, taken1)
                if part2 is None:
                    continue
                if fresh:
                    best, fresh = (gens + [gj], found + part1 + part2), False
                if not deeper:
                    return True
                nxt = chain_set(gj)
                if len(nxt) >= 3 and extend(stage + 1, gens + [gj],
                                            found + part1 + part2, nxt):
                    return True
        return False

    if top > 1:
        extend(1, [], [], ordered)
    gens, found = best
    # P({0}) and the last generator are free: the first untaken element,
    # and the first pool element keeping the sequence injective
    taken = set(found)
    values = [next(x for x in ordered if x not in taken)] + found
    gens = gens + [next(c for c in pool_list if c not in gens)]
    depth = len(gens)
    shifts = tuple(mul(group.inv(gens[j]), values[2 ** j - 1])
                   for j in range(depth))
    prods = tuple(sorted((_indices(m), v) for m, v in enumerate(values, 1)))
    witness = PwipWitness(group, depth, tuple(gens), shifts, prods)
    assert witness.validate(sample.elements)
    return depth, witness


@dataclass(frozen=True)
class NestedChain:
    """Decreasing sets with translation nesting g_n . A_{n+1} <= A_n and
    representatives x_n in A_{n+1}."""

    group: object
    sets: tuple              # frozensets, A_0 ... A_k
    gens: tuple              # g_0 ... g_{k-1}
    reps: tuple              # x_0 ... x_{k-1}

    def check(self):
        g = self.group
        k = len(self.gens)
        if len(self.sets) != k + 1 or len(self.reps) != k:
            raise GroupError("chain lengths are inconsistent")
        for n in range(k):
            if not self.sets[n + 1] <= self.sets[n]:
                raise GroupError(f"sets not decreasing at level {n}")
            if self.reps[n] not in self.sets[n + 1]:
                raise GroupError(f"representative {n} not in the next set")
            translated = {g.mul(self.gens[n], a) for a in self.sets[n + 1]}
            if not translated <= self.sets[n]:
                raise GroupError(f"translation nesting fails at level {n}")


def extract_pwip_from_chain(chain):
    """All products g_0^e0 ... g_n^en . x_n; contained in A_0 by nesting."""
    chain.check()
    g = chain.group
    prods = _subset_products(g, chain.gens)
    out = set()
    for n, x in enumerate(chain.reps):
        out.update(g.right_translates(prods[:2 ** (n + 1)], x))
    result = frozenset(out)
    if not result <= chain.sets[0]:
        raise GroupError("extracted set escapes the top set")
    return FiniteSample(g, result)
