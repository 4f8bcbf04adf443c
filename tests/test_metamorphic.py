"""Metamorphic invariances of the verdicts.

A group automorphism that maps every word ball onto itself and every
window onto itself preserves restricted balls, since
phi(B_Y(y, F)) = B_phiY(phi y, phi F), so it preserves the thin degree
and the whole isolated-balls report.  Right translation by h preserves
every restricted-ball size, since B(gh, F) = B(g, F).h, and the pwip
depth: (yh)(xh)^-1 = yx^-1, so the quotient pool does not change, and
the search is exhaustive within it.

The sparse verdict and the pwip depth should survive every automorphism
too, and every verdict an isomorphism that keeps word lengths and
windows, such as n -> (n,) -> a^n from z to z^1 and free:1.  Where a
truncation in ``sort_key`` order or a family's own scale rule breaks
that, the case is pinned as a strict xfail.
"""

import random
from dataclasses import dataclass
from functools import cache
from operator import neg

import pytest
from hypothesis import given, settings, strategies as st

from coarsesets.budgets import preset
from coarsesets.classifiers import (classify, isolated_balls_verdict,
                                    sparse_witness, thin_degree)
from coarsesets.geometry import Radius, word_radius
from coarsesets.groups import (FiniteSample, FreeGroup, IntGroup,
                               LatticeGroup, XorGroup, reduce_word)
from coarsesets.recipes import SetSpec
from coarsesets.structures import deepest_pwip

SMALL = preset("small")
MEDIUM = preset("medium")
_XOR = XorGroup(5)


@dataclass(frozen=True)
class Truncation:
    """The recipe of a fixed finite set cut to the window, so that the
    enlarged resample of a sample keeps the points beyond its window."""

    pool: frozenset

    def resolve(self, group, window):
        inside = frozenset(x for x in self.pool
                           if group.interior(window, (x,), 0))
        return FiniteSample(group, inside, window, self)


def _words(max_size):
    return st.text(alphabet="abAB", max_size=max_size).map(reduce_word)


def _points(c):
    return st.tuples(st.integers(-c, c), st.integers(-c, c))


def _permute_bits(perm):
    """The automorphism moving bit j to bit perm[j], for the m = len(perm)
    declared bits; the bits beyond them stay."""
    m = len(perm)

    def phi(mask):
        out = mask >> m << m
        for j, k in enumerate(perm):
            if mask >> j & 1:
                out |= 1 << k
        return out
    return phi


def _bit_permutations(m):
    return st.permutations(range(m)).map(_permute_bits)


def _letters(table):
    table = str.maketrans(table)
    return lambda w: w.translate(table)


def _swap(p):
    return p[1], p[0]


def _sign_flip(p):
    return -p[0], p[1]


_A_B = _letters({"a": "b", "b": "a", "A": "B", "B": "A"})
_A_INV = _letters({"a": "A", "A": "a"})

# name -> (group, window extent, interior points at the small margin,
# points of the enlarged window, strategy of the automorphism)
AUTOMORPHISMS = {
    "z/negation": (IntGroup(), 40, st.integers(-10, 10),
                   st.integers(-160, 160), st.just(neg)),
    "z^2/swap": (LatticeGroup(2), 34, _points(4), _points(40),
                 st.just(_swap)),
    "z^2/sign-flip": (LatticeGroup(2), 34, _points(4), _points(40),
                      st.just(_sign_flip)),
    "z2sum:5/bits": (_XOR, 5, st.integers(0, 31), st.integers(0, 127),
                     _bit_permutations(_XOR.m)),
    "free:2/a-b": (FreeGroup(2), 8, _words(1), _words(12), st.just(_A_B)),
    "free:2/a-A": (FreeGroup(2), 8, _words(1), _words(12), st.just(_A_INV)),
}


@pytest.mark.parametrize("name", sorted(AUTOMORPHISMS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_automorphisms_preserve_thin_and_isolated_balls(name, data):
    group, extent, near, far, automorphisms = AUTOMORPHISMS[name]
    pool = frozenset(data.draw(st.lists(near, min_size=1, max_size=12))
                     + data.draw(st.lists(far, max_size=30)))
    phi = data.draw(automorphisms)
    image = frozenset(map(phi, pool))
    assert len(image) == len(pool)
    sample = Truncation(pool).resolve(group, extent)
    mapped = Truncation(image).resolve(group, extent)
    assert mapped.elements == frozenset(map(phi, sample.elements))
    for r in range(SMALL.f_max + 1):
        radius = word_radius(group, r)
        rep, rep_phi = (thin_degree(s, radius, SMALL)
                        for s in (sample, mapped))
        assert (rep.degree, rep.interior_size, rep.stable) == \
            (rep_phi.degree, rep_phi.interior_size, rep_phi.stable)
        assert set(rep_phi.exceptional) == set(map(phi, rep.exceptional))
    iso, iso_phi = (isolated_balls_verdict(s, SMALL) for s in (sample, mapped))
    assert (iso.verdict, iso.winning_f, iso.isolated_counts,
            iso.refutations, iso.interior_size) == \
        (iso_phi.verdict, iso_phi.winning_f, iso_phi.isolated_counts,
         iso_phi.refutations, iso_phi.interior_size)
    assert set(iso_phi.sample_isolated) == set(map(phi, iso.sample_isolated))


def _seeded_word(rng, max_size):
    size = rng.randint(0, max_size)
    return reduce_word("".join(rng.choices("abAB", k=size)))


def _seeded_point(rng, c):
    return rng.randint(-c, c), rng.randint(-c, c)


# name -> (interior point, point of the enlarged window, automorphism),
# each drawn from a random.Random over the ranges of AUTOMORPHISMS
SEEDED = {
    "z/negation": (lambda r: r.randint(-10, 10),
                   lambda r: r.randint(-160, 160), lambda r: neg),
    "z^2/swap": (lambda r: _seeded_point(r, 4),
                 lambda r: _seeded_point(r, 40), lambda r: _swap),
    "z^2/sign-flip": (lambda r: _seeded_point(r, 4),
                      lambda r: _seeded_point(r, 40), lambda r: _sign_flip),
    "z2sum:5/bits": (lambda r: r.randint(0, 31), lambda r: r.randint(0, 127),
                     lambda r: _permute_bits(r.sample(range(_XOR.m), _XOR.m))),
    "free:2/a-b": (lambda r: _seeded_word(r, 1),
                   lambda r: _seeded_word(r, 12), lambda r: _A_B),
    "free:2/a-A": (lambda r: _seeded_word(r, 1),
                   lambda r: _seeded_word(r, 12), lambda r: _A_INV),
}
SEEDED_POOLS = 24


def _seeded_case(name, i):
    """Pool i of ``name`` and its automorphism: up to 40 interior points
    and up to 120 points of the enlarged window, dense enough that the
    sparse verdict goes both ways."""
    near, far, automorphism = SEEDED[name]
    rng = random.Random(f"{name}:{i}")
    pool = frozenset([near(rng) for _ in range(rng.randint(1, 40))]
                     + [far(rng) for _ in range(rng.randint(0, 120))])
    return pool, automorphism(rng)


# (name, i) -> the seeded case, written out, on which the sparse verdict
# changes under the automorphism: the X-pool and the candidate cap cut
# ``sort_key`` order, which the automorphism does not keep
ENCODING_PINS = {
    ("z/negation", 9): (frozenset({
        -158, -157, -153, -147, -145, -140, -136, -133, -127, -125, -120,
        -101, -98, -93, -92, -90, -89, -87, -71, -70, -67, -56, -55, -53,
        -50, -49, -47, -42, -40, -34, -32, -20, -19, -17, -9, -8, -7, -4,
        -2, -1, 1, 2, 6, 8, 9, 15, 17, 29, 30, 32, 33, 35, 36, 38, 40, 41,
        48, 56, 58, 63, 67, 68, 69, 70, 75, 86, 90, 91, 102, 104, 109, 116,
        123, 124, 134, 138, 139, 140, 141, 146, 147, 157, 158, 160}), neg),
    ("z/negation", 18): (frozenset({
        -158, -157, -150, -143, -140, -137, -136, -134, -126, -125, -115,
        -114, -112, -104, -101, -98, -90, -89, -86, -84, -77, -76, -73, -69,
        -66, -65, -64, -61, -57, -56, -55, -48, -47, -41, -38, -37, -36,
        -22, -21, -20, -18, -10, -9, -8, -7, -6, -4, -3, -2, -1, 0, 1, 2, 4,
        7, 8, 9, 10, 11, 13, 14, 19, 24, 27, 33, 52, 59, 60, 61, 68, 72, 73,
        79, 82, 84, 85, 86, 97, 100, 102, 105, 108, 109, 114, 115, 122, 128,
        133, 135, 137, 140, 141, 145, 152, 153, 158, 159}), neg),
    ("z/negation", 19): (frozenset({
        -154, -153, -151, -143, -135, -134, -128, -125, -121, -118, -116,
        -107, -102, -101, -98, -97, -92, -84, -81, -80, -67, -64, -54, -53,
        -48, -30, -16, -14, -13, -10, -9, -8, -7, -6, -5, -4, -3, -2, -1, 0,
        1, 3, 4, 5, 6, 7, 8, 9, 10, 19, 20, 25, 28, 32, 37, 39, 40, 41, 65,
        68, 71, 75, 77, 87, 88, 94, 96, 98, 102, 105, 106, 109, 116, 122,
        127, 133, 134, 139, 141, 146, 149, 153, 154, 155, 156, 160}), neg),
    ("z2sum:5/bits", 15): (frozenset({
        6, 9, 10, 11, 13, 14, 16, 19, 21, 22, 25, 30, 31, 37, 42, 44, 46,
        49, 56, 58, 59, 62, 64, 68, 69, 70, 73, 77, 79, 81, 82, 85, 90, 94,
        99, 107, 108, 110, 111, 112, 113, 118, 119, 120, 122, 127}),
        _permute_bits((4, 2, 1, 3, 0))),
}


def _seeded_params():
    for name in sorted(SEEDED):
        for i in range(SEEDED_POOLS):
            marks = ()
            if (name, i) in ENCODING_PINS:
                marks = pytest.mark.xfail(
                    strict=True, raises=AssertionError,
                    reason="the sparse X-pool and candidates "
                    "are cut in sort_key order, which the automorphism "
                    "does not preserve")
            yield pytest.param(name, i, marks=marks, id=f"{name}-{i}")


@pytest.mark.parametrize("name, i", _seeded_params())
def test_automorphisms_preserve_the_sparse_verdict_and_pwip_depth(name, i):
    group, extent = AUTOMORPHISMS[name][:2]
    pool, phi = ENCODING_PINS.get((name, i)) or _seeded_case(name, i)
    image = frozenset(map(phi, pool))
    assert len(image) == len(pool)
    samples = (Truncation(pool).resolve(group, extent),
               Truncation(image).resolve(group, extent))
    sparse, sparse_phi = (sparse_witness(s, s, SMALL).verdict
                          for s in samples)
    depth, depth_phi = (deepest_pwip(s, SMALL.max_depth, SMALL)[0]
                        for s in samples)
    assert (sparse, depth) == (sparse_phi, depth_phi)


# name -> (z recipe, window): the sets measured for the maps z -> z^1 ->
# free:1, n -> (n,) -> a^n, which keep word lengths and windows
Z_SETS = {
    "periodic-4-01": (SetSpec.make("z", "periodic", modulus=4,
                                   residues=["0", "1"]), 300),
    "periodic-3-0": (SetSpec.make("z", "periodic", modulus=3,
                                  residues=["0"]), 300),
    "powers-2": (SetSpec.make("z", "powers", base=2), 512),
    "cantor-auto": (SetSpec.make("z", "cantor", levels="auto"), 500),
    "window-200": (SetSpec.make("z", "window"), 200),
    "explicit-13": (SetSpec.make("z", "explicit", elements=[
        "0", "1", "3", "7", "12", "20", "30", "44", "65", "80", "96", "122",
        "147"]), 200),
}
ISOMORPHIC = {
    "z": (IntGroup(), lambda n: n),
    "z^1": (LatticeGroup(1), lambda n: (n,)),
    "free:1": (FreeGroup(1), lambda n: "a" * n if n >= 0 else "A" * -n),
}


@cache
def _classify_summary(name, budget, family):
    """The verdicts of ``classify`` on the image of the z set ``name`` in
    ``family``.  The set is resolved at 4 times its window, so every
    family's enlarged resample keeps the points beyond the window."""
    recipe, window = Z_SETS[name]
    group, phi = ISOMORPHIC[family]
    pool = frozenset(map(phi, recipe.resolve(IntGroup(), 4 * window)))
    rep = classify(Truncation(pool).resolve(group, window), preset(budget))
    iso = rep["isolated_balls"]
    return (rep["thin"]["degree"],
            [(p["verdict"], p["witness"] and len(p["witness"]))
             for p in rep["sparse"]["probes"]],
            iso["verdict"], iso["winning_radius"],
            [c["count"] for c in iso["isolated_counts"]],
            rep["pwip"]["max_depth"])


def _isomorphism_params(family):
    for name in Z_SETS:
        for budget in ("small", "medium"):
            yield pytest.param(family, name, budget,
                               id=f"{family}-{name}-{budget}")


@pytest.mark.parametrize("family, name, budget", [
    *_isomorphism_params("z^1"), *_isomorphism_params("free:1")])
def test_isomorphic_groups_give_identical_verdicts(family, name, budget):
    assert _classify_summary(name, budget, family) == \
        _classify_summary(name, budget, "z")


# name -> (group, element strategy)
TRANSLATIONS = {
    "z": (IntGroup(), st.integers(-60, 60)),
    "z^2": (LatticeGroup(2), _points(8)),
    "z2sum:5": (_XOR, st.integers(0, 127)),
    "free:2": (FreeGroup(2), _words(5)),
}


@pytest.mark.parametrize("name", sorted(TRANSLATIONS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_right_translation_preserves_ball_sizes(name, data):
    group, elements = TRANSLATIONS[name]
    Y = data.draw(st.frozensets(elements, min_size=1, max_size=30))
    points = data.draw(st.lists(elements, max_size=10, unique=True))
    points += group.sorted(Y)[:data.draw(st.integers(0, len(Y)))]
    h = data.draw(elements)
    shifted = FiniteSample(group, frozenset(group.mul(y, h) for y in Y))
    sample = FiniteSample(group, Y)
    radii = [word_radius(group, data.draw(st.integers(0, 3))),
             Radius(group, data.draw(st.frozensets(elements, max_size=8)))]
    for radius in radii:
        steps = radius.elements | {group.identity()}
        assert group.ball_sizes(sample, points, steps) == group.ball_sizes(
            shifted, [group.mul(p, h) for p in points], steps)


# name -> (group, element strategy on a universe small enough that
# random sets often hold pwip structure of depth 2 and 3)
DENSE = {
    "z": (IntGroup(), st.integers(-12, 12)),
    "z^2": (LatticeGroup(2), _points(2)),
    "z2sum:5": (_XOR, st.integers(0, 31)),
    "free:2": (FreeGroup(2), _words(2)),
}


@pytest.mark.parametrize("name", sorted(DENSE))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_right_translation_preserves_the_pwip_depth(name, data):
    group, elements = DENSE[name]
    Y = data.draw(st.frozensets(elements, min_size=1, max_size=14))
    h = data.draw(TRANSLATIONS[name][1])
    shifted = FiniteSample(group, frozenset(group.mul(y, h) for y in Y))
    depth, _ = deepest_pwip(FiniteSample(group, Y), MEDIUM.max_depth, MEDIUM)
    assert deepest_pwip(shifted, MEDIUM.max_depth, MEDIUM)[0] == depth


# Nine masks inside the window of 9 coordinates and seven more on
# coordinate 9, which only the enlarged window holds; found by a seeded
# search over random sets of masks of support <= 3 on 10 coordinates,
# then shrunk.  Reversing the 9 declared bits is an automorphism that
# keeps both windows, yet the sparse search finds a witness only after
# it: the X-pool is the first 8 masks in integer order, so the encoding
# decides which F are tried.
ENCODING_POOL = frozenset({0, 1, 2, 3, 6, 8, 9, 10, 16,
                           512, 513, 514, 516, 518, 520, 521})


@pytest.mark.xfail(strict=True, reason="the sparse X-pool is cut in integer "
                   "order, which a bit permutation does not preserve")
def test_bit_reversal_preserves_the_sparse_verdict_on_z2sum9():
    group = XorGroup(9)
    reverse = _permute_bits(range(8, -1, -1))
    sample = Truncation(ENCODING_POOL).resolve(group, 9)
    mapped = Truncation(frozenset(map(reverse, ENCODING_POOL))).resolve(group, 9)
    assert mapped.outer.elements == frozenset(map(reverse, sample.outer.elements))
    assert sparse_witness(sample, sample, SMALL).verdict == \
        sparse_witness(mapped, mapped, SMALL).verdict
