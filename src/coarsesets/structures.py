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

from dataclasses import dataclass
from itertools import combinations

from .groups import (FiniteSample, GroupError, IntGroup, XorGroup, Window)


def _check_injective(group, gens):
    seen = set()
    for g in gens:
        group.validate(g)
        if g in seen:
            raise GroupError("generator sequence must be injective")
        seen.add(g)


def gen_ip(group, gens):
    """All products over nonempty increasing index subsets of gens."""
    gens = tuple(gens)
    if not gens:
        raise GroupError("need at least one generator")
    if len(gens) > 20:
        raise GroupError("at most 20 generators")
    _check_injective(group, gens)
    prefix = {group.identity()}          # products over subsets of a prefix
    out = set()
    for g in gens:
        layer = {group.mul(p, g) for p in prefix}
        out |= layer
        prefix |= layer
    return FiniteSample(group, frozenset(out))


def gen_pwip(group, gens, shifts):
    """Shifted products: each gens-product is multiplied on the right by
    the shift indexed by its largest factor."""
    gens = tuple(gens)
    shifts = tuple(shifts)
    if len(gens) != len(shifts):
        raise GroupError("generators and shifts must have equal length")
    if not gens:
        raise GroupError("need at least one generator")
    _check_injective(group, gens)
    for b in shifts:
        group.validate(b)
    prefix = {group.identity()}
    out = set()
    for g, b in zip(gens, shifts):
        out |= {group.mul(group.mul(p, g), b) for p in prefix}
        prefix |= {group.mul(p, g) for p in prefix}
    return FiniteSample(group, frozenset(out))


def gen_wn(m, n):
    """Bit vectors on m coordinates with support at most n."""
    if not 0 <= n <= m <= 24:
        raise GroupError("need 0 <= n <= m <= 24")
    group = XorGroup(m)
    return FiniteSample(group, group.word_ball(n), Window(group, m))


CANTOR_WINDOW_MARGIN = 128


def cantor_offsets(levels):
    """Block offsets: each block of length 3^n is separated from the next
    by more than 2 * 3^(n+1)."""
    offs = [0]
    for n in range(1, levels):
        offs.append(offs[-1] + 3 ** n + 2 * 3 ** (n + 1))
    return offs


def _no_one_digits(i):
    while i:
        if i % 3 == 1:
            return False
        i //= 3
    return True


def cantor_levels_for_window(extent):
    """Largest level count whose last block still fits the window."""
    levels = 0
    offs = [0]
    for n in range(1, 13):
        end = offs[-1] + 3 ** n
        if end + CANTOR_WINDOW_MARGIN <= extent:
            levels = n
        else:
            break
        offs.append(offs[-1] + 3 ** n + 2 * 3 ** (n + 1))
    return max(levels, 1)


def gen_cantor_geodesic(levels):
    """Union of geodesic blocks keeping only indices whose base-3 digits
    avoid 1; block n contributes 2^n points."""
    if not 1 <= levels <= 12:
        raise GroupError("levels must be in 1..12")
    group = IntGroup()
    offs = cantor_offsets(levels)
    out = set()
    for n in range(1, levels + 1):
        o = offs[n - 1]
        for i in range(3 ** n + 1):
            if _no_one_digits(i):
                out.add(o + i)
    extent = offs[-1] + 3 ** levels + CANTOR_WINDOW_MARGIN
    return FiniteSample(group, frozenset(out), Window(group, extent))


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
        derived = {}
        for size in range(1, self.depth + 1):
            for idx in combinations(range(self.depth), size):
                p = g.identity()
                for i in idx:
                    p = g.mul(p, self.gens[i])
                p = g.mul(p, self.shifts[idx[-1]])
                derived[idx] = p
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


def _quotient_pool(group, elements, cap):
    """Candidate generator pool: quotients y.x^-1 of sample elements,
    deterministically truncated."""
    pool = group.products(elements, [group.inv(x) for x in elements])
    ordered = sorted(pool, key=group.sort_key)
    return ordered[:cap]


def detect_pwip(sample, depth, scale=None, pool_cap=4096):
    """Exact-depth witness search inside the sample, or None.

    The 2^d - 1 products are picked in the sample consistently with the
    product equations; generators are solved from them and must fall in
    the quotient pool (capped at ``pool_cap``).
    """
    if depth < 1:
        raise GroupError("depth must be >= 1")
    group = sample.group
    elems = sample.elements
    if 2 ** depth - 1 > len(elems):
        return None              # not enough room for the distinct products
    if scale is not None:
        pool_cap = scale.pool_cap
    ordered = sorted(elems, key=group.sort_key)
    pool_list = _quotient_pool(group, ordered, pool_cap)
    pool = frozenset(pool_list)
    e = group.identity()

    # prefix: map from index tuple (subset of chosen generator indices)
    # to the ordered product of those generators.
    def extend(stage, gens, prefix, products):
        if stage == depth:
            for x0 in ordered:
                if x0 not in products.values():
                    products = dict(products)
                    products[(0,)] = x0
                    return gens, products
            return None
        taken = set(products.values())
        # prefix entries not ending in index stage - 1; fixed for every xj
        items = [(S, p) for S, p in prefix.items()
                 if not (S and S[-1] == stage - 1)]
        for xj in ordered:
            part1 = {}
            ok = True
            for S, p in items:
                v = group.mul(p, xj)
                if v not in elems or v in taken or v in part1.values():
                    ok = False
                    break
                part1[S + (stage,)] = v
            if not ok:
                continue
            taken1 = taken | set(part1.values())
            xj_inv = group.inv(xj)
            for t in ordered:
                gj = group.mul(t, xj_inv)
                if gj not in pool or gj in gens:
                    continue
                part2 = {}
                ok2 = True
                for S, p in items:
                    v = group.mul(p, t)
                    if v not in elems or v in taken1 or v in part2.values():
                        ok2 = False
                        break
                    part2[S + (stage - 1, stage)] = v
                if not ok2:
                    continue
                new_prefix = dict(prefix)
                for S, p in items:
                    new_prefix[S + (stage - 1,)] = group.mul(p, gj)
                new_products = dict(products)
                new_products.update(part1)
                new_products.update(part2)
                hit = extend(stage + 1, gens + [gj], new_prefix, new_products)
                if hit is not None:
                    return hit
        return None

    if depth == 1:
        gens, products = [], {(0,): ordered[0]}
    else:
        hit = extend(1, [], {(): e}, {})
        if hit is None:
            return None
        gens, products = hit

    # the last generator is unconstrained by the products; pick the
    # first pool element keeping the sequence injective.
    last = next((c for c in pool_list if c not in gens), None)
    if last is None:
        return None
    gens = gens + [last]
    shifts = tuple(group.mul(group.inv(gens[j]), products[(j,)])
                   for j in range(depth))
    prods = tuple(sorted(products.items()))
    witness = PwipWitness(group, depth, tuple(gens), shifts, prods)
    assert witness.validate(elems)
    return witness


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
    out = set()
    prefix = [g.identity()]
    for n, gn in enumerate(chain.gens):
        prefix = prefix + [g.mul(p, gn) for p in prefix]
        out |= {g.mul(p, chain.reps[n]) for p in prefix}
    result = frozenset(out)
    if not result <= chain.sets[0]:
        raise GroupError("extracted set escapes the top set")
    return FiniteSample(g, result)
