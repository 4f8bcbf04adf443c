"""Metamorphic invariances of the verdicts.

A group automorphism that maps every word ball onto itself and every
window onto itself preserves restricted balls, since
phi(B_Y(y, F)) = B_phiY(phi y, phi F), so it preserves the thin degree
and the whole isolated-balls report.  Right translation by h preserves
every restricted-ball size, since B(gh, F) = B(g, F).h, and the pwip
depth: (yh)(xh)^-1 = yx^-1, so the quotient pool does not change, and
the search is exhaustive within it.
"""

from dataclasses import dataclass
from operator import neg

import pytest
from hypothesis import given, settings, strategies as st

from coarsesets.budgets import preset
from coarsesets.classifiers import (isolated_balls_verdict, sparse_witness,
                                    thin_degree)
from coarsesets.geometry import Radius, word_radius
from coarsesets.groups import (FiniteSample, FreeGroup, IntGroup,
                               LatticeGroup, XorGroup, reduce_word)
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
    return st.just(lambda w: w.translate(str.maketrans(table)))


# name -> (group, window extent, interior points at the small margin,
# points of the enlarged window, strategy of the automorphism)
AUTOMORPHISMS = {
    "z/negation": (IntGroup(), 40, st.integers(-10, 10),
                   st.integers(-160, 160), st.just(neg)),
    "z^2/swap": (LatticeGroup(2), 34, _points(4), _points(40),
                 st.just(lambda p: (p[1], p[0]))),
    "z^2/sign-flip": (LatticeGroup(2), 34, _points(4), _points(40),
                      st.just(lambda p: (-p[0], p[1]))),
    "z2sum:5/bits": (_XOR, 5, st.integers(0, 31), st.integers(0, 127),
                     _bit_permutations(_XOR.m)),
    "free:2/a-b": (FreeGroup(2), 8, _words(1), _words(12),
                   _letters({"a": "b", "b": "a", "A": "B", "B": "A"})),
    "free:2/a-A": (FreeGroup(2), 8, _words(1), _words(12),
                   _letters({"a": "A", "A": "a"})),
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
        sizes = group.ball_sizes(sample, points, steps)
        moved = group.ball_sizes(shifted, [group.mul(p, h) for p in points],
                                 steps)
        assert [sizes[p] for p in points] == \
            [moved[group.mul(p, h)] for p in points]


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
