"""Canonical witness sets and the piecewise-shifted-IP detector.

The finite-products set of an injective generator sequence, its shifted
variant (each product multiplied on the right by the shift indexed by
the largest factor), the bounded-support subsets of the restricted Z/2
sum, and the base-3 geodesic set whose kept indices have no digit 1.

The detector solves for generators and shifts directly from candidate
product assignments inside the target set, so its search space is the
set's own elements and their quotients.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import compress

from . import budgets
from .groups import (FiniteSample, GroupError, IntGroup, XorGroup,
                     word_ball_elements)

MAX_GENERATORS = 20


def _check_injective(group, gens):
    seen = set()
    for g in gens:
        group.validate(g)
        if g in seen:
            raise GroupError("generator sequence must be injective")
        seen.add(g)


def _subset_products(group, gens):
    """Products over the index subsets of gens, by prefix doubling.

    Entry m is the product of gens[i] over the set bits i of m, in
    increasing i; so entry 0 is the identity, and entries 2^j to
    2^(j+1) - 1 are the subsets whose largest index is j.
    """
    mul = group.mul
    prods = [group.identity()]
    for g in gens:
        prods += [mul(p, g) for p in prods]
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
    _check_injective(group, gens)
    for b in shifts:
        group.validate(b)
    # layer j holds the products whose largest index is j, merged as
    # they are built: L_j = P_j.g_j and P_{j+1} = P_j | L_j.
    prods = {group.identity()}
    out = set()
    for g, b in zip(gens, shifts):
        layer = group.products(prods, (g,))
        out |= group.products(layer, (b,))
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


def _pool_partners(group, pool, cands):
    """xj -> the t in ``cands`` with t.xj^-1 in the pool, in the order of
    ``cands``: all of ``cands`` when the pool is no smaller, else the
    translates pool.xj that lie in ``cands``, ordered by position."""
    if len(pool) >= len(cands):
        return lambda xj: cands
    position = {x: i for i, x in enumerate(cands)}
    return lambda xj: sorted(position.keys() & group.products(pool, (xj,)),
                             key=position.__getitem__)


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
                        group.products(cands, (group.inv(x),))):
                    table[h].append(x)
        return table.get(g, [])

    return chain_set


def detect_pwip(sample, depth, scale=None):
    """Exact-depth witness search inside the sample, or None.

    The 2^d - 1 products are picked in the sample consistently with the
    product equations; generators are solved from them and must fall in
    the quotient pool: the scale's ``pool_cap`` quotients of smallest
    (norm, sort_key) (the large preset's cap when no scale is given).
    """
    if depth < 1:
        raise GroupError("depth must be >= 1")
    group = sample.group
    elems = sample.elements
    # 2^depth - 1 > |A|, without building 2^depth
    if depth >= (len(elems) + 1).bit_length():
        return None              # not enough room for the distinct products
    scale = scale or budgets.preset("large")
    ordered = sample.ordered
    pool_list = sample.quotient_pool(scale.pool_cap)
    pool = frozenset(pool_list)
    mul = group.mul

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
    # g_{j-1} = t.x^-1 and, by translating the products over subsets of
    # {0..j-2}, every product whose largest index is j.  ``found`` holds
    # those products in subset-mask order from mask 2 on; P({0}) is free
    # and is picked last.  Both x and t come from ``cands``, the chain
    # set A_j of the sample elements whose prefix translates all lie in
    # the sample; the generator g picked at stage j shrinks it to
    # A_{j+1} = A_j & g^-1.A_j through the node's ``chain_set``, which
    # scans A_j once per g for the node's first |A_j| steps and then
    # reads a pair table built once.  The last picking stage skips the
    # step: the final stage reads no chain set.  Every element left out
    # would fail ``translate``, so the search takes the same branches in
    # the same order as over the whole sample.  A child that still has
    # to pick needs 3 elements of A_{j+1}: its x and t differ, and both
    # differ from this stage's x, which lies in A_{j+1} (g.x = t is in
    # A_j) and is already taken.  So a smaller A_{j+1} is skipped
    # unsearched.
    def extend(stage, gens, found, cands):
        taken = set(found)
        if stage == depth:
            # 2^d - 1 <= |sample| leaves at least one element untaken
            return gens, [next(x for x in ordered if x not in taken)] + found
        prefix = _subset_products(group, gens)
        partners = _pool_partners(group, pool_list, cands)
        deeper = stage + 1 < depth
        chain_set = _chain_sets(group, cands, pool) if deeper else None
        for xj in cands:
            part1 = translate(prefix, xj, taken)
            if part1 is None:
                continue
            taken1 = taken.union(part1)
            xj_inv = group.inv(xj)
            for t in partners(xj):
                gj = mul(t, xj_inv)
                if gj not in pool or gj in gens:
                    continue
                part2 = translate(prefix, t, taken1)
                if part2 is None:
                    continue
                nxt = None
                if deeper:
                    nxt = chain_set(gj)
                    if len(nxt) < 3:
                        continue
                hit = extend(stage + 1, gens + [gj], found + part1 + part2,
                             nxt)
                if hit is not None:
                    return hit
        return None

    hit = extend(1, [], [], ordered)
    if hit is None:
        return None
    gens, values = hit
    # the last generator is unconstrained by the products; pick the
    # first pool element keeping the sequence injective.
    last = next((c for c in pool_list if c not in gens), None)
    if last is None:
        return None
    gens = gens + [last]
    shifts = tuple(mul(group.inv(gens[j]), values[2 ** j - 1])
                   for j in range(depth))
    prods = tuple(sorted((_indices(m), v) for m, v in enumerate(values, 1)))
    witness = PwipWitness(group, depth, tuple(gens), shifts, prods)
    assert witness.validate(elems)
    return witness


def deepest_pwip(sample, max_depth, scale):
    """(d, ``detect_pwip(sample, d)``) for the largest d <= max_depth
    with a witness, or (0, None).  Success is monotone in depth: a
    branch that reaches stage d passed stage d - 1, and the pool still
    holds a spare last generator.  So the depths are tried upward, and
    at most the last search runs to exhaustion."""
    depth, witness = 0, None
    for d in range(1, max_depth + 1):
        found = detect_pwip(sample, d, scale=scale)
        if found is None:
            break
        depth, witness = d, found
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
        out |= g.products(prods[:2 ** (n + 1)], (x,))
    result = frozenset(out)
    if not result <= chain.sets[0]:
        raise GroupError("extracted set escapes the top set")
    return FiniteSample(g, result)
