import random

import pytest
from hypothesis import given, settings, strategies as st

from coarsesets.budgets import preset
from coarsesets.classifiers import thin_degree
from coarsesets.geometry import (Radius, ball, cellularity_probe,
                                 chain_component, chain_partition,
                                 prec_mapping_check, restricted_ball,
                                 word_radius)
from coarsesets.groups import (FiniteSample, FreeGroup, Group, GroupError,
                               IntGroup, LatticeGroup, XorGroup,
                               enumerate_window, word_ball_elements)

from coarsesets.recipes import SetSpec

import oracles

Z = IntGroup()


def zradius(*elements):
    return Radius(Z, frozenset(elements))


def test_ball_examples():
    assert ball(Z, 5, zradius(-1, 1)) == {4, 5, 6}
    assert ball(Z, 7, Radius(Z, frozenset())) == {7}
    f = FreeGroup(2)
    got = ball(f, "b", Radius(f, frozenset({"a", "A"})))
    assert got == {"ab", "Ab", "b"}


def test_restricted_ball_examples():
    powers = frozenset(2**n for n in range(21))
    sample = FiniteSample(Z, powers)
    assert restricted_ball(sample, 1, zradius(-1, 1)) == {1, 2}
    assert restricted_ball(FiniteSample(Z, frozenset()), 1, zradius(-1, 1)) == frozenset()
    win = enumerate_window(Z, 10)
    assert restricted_ball(win, 0, zradius(-1, 1)) == {-1, 0, 1}


@given(g=st.integers(-10**6, 10**6),
       f=st.frozensets(st.integers(-50, 50), max_size=10))
def test_ball_law(g, f):
    b = ball(Z, g, Radius(Z, f))
    assert g in b
    assert len(b) <= len(f) + 1


# name -> (group, universe to draw Y, the centers and F from).  F may be
# empty or larger than Y, so both sides of the smaller-side translate run;
# free:2 is the family that tells Y.y^-1 from y^-1.Y.
_LATTICE, _XOR, _FREE = LatticeGroup(2), XorGroup(5), FreeGroup(2)
BALL_FAMILIES = {
    "z": (Z, list(range(-30, 31))),
    "z^2": (_LATTICE, sorted(_LATTICE.window_elements(3))),
    "z2sum": (_XOR, list(range(64))),
    "free": (_FREE, sorted(_FREE.word_ball(3), key=_FREE.sort_key)),
}
# On z, integer intervals take the bisection kernel; other sets fall back.
Z_INTERVALS = st.builds(lambda lo, n: frozenset(range(lo, lo + n)),
                        st.integers(-20, 20), st.integers(0, 25))


@pytest.mark.parametrize("family", sorted(BALL_FAMILIES))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_ball_sizes_match_restricted_balls(family, data):
    group, universe = BALL_FAMILIES[family]
    elements = st.sampled_from(universe)
    Y = data.draw(st.frozensets(elements, max_size=12))
    steps = st.frozensets(elements, max_size=40)
    if group == Z:
        steps = st.one_of(Z_INTERVALS, steps)
    radius = Radius(group, data.draw(steps))
    points = data.draw(st.lists(elements, max_size=8))
    sample = FiniteSample(group, Y)
    steps = radius.elements | {group.identity()}
    assert group.ball_sizes(sample, points, steps) == [
        len(restricted_ball(sample, y, radius)) for y in points]


@pytest.mark.parametrize("family", sorted(BALL_FAMILIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ball_size_sweep_matches_the_word_balls(family, data):
    """The sweep's list at each word radius r <= R, in each of two
    windows, is ``ball_sizes`` over wordball(r) and the sizes of the
    built restricted balls.  A sample of at most three elements is
    smaller than every sphere past radius 0 (z's {-r, r} when it holds
    one element), so the spheres take both sides of the base kernel."""
    group, universe = BALL_FAMILIES[family]
    elements = st.sampled_from(universe)
    R = data.draw(st.integers(0, 3))
    windows = []
    for _ in range(2):
        size = data.draw(st.sampled_from([3, 30]))
        Y = data.draw(st.frozensets(elements, min_size=1, max_size=size))
        points = data.draw(st.lists(st.sampled_from(group.sorted(Y)),
                                    max_size=8))
        windows.append((FiniteSample(group, Y), points))
    tables = group.ball_size_sweep(windows, R)
    for (sample, points), table in zip(windows, tables):
        assert len(table) == R + 1
        for r, sizes in enumerate(table):
            steps = word_ball_elements(group, r)
            assert sizes == group.ball_sizes(sample, points, steps) == [
                len(oracles.brute_ball(group, y, oracles.bfs_word_ball(
                    group, r)) & sample.elements) for y in points]


def test_ball_sizes_rejects_a_radius_of_another_group():
    # thin degree makes the check before it counts ball sizes
    with pytest.raises(GroupError, match="radius belongs to a different group"):
        thin_degree(FiniteSample(Z, frozenset({0})), word_radius(_FREE, 1),
                    preset("small"))


@settings(max_examples=150, deadline=None)
@given(elems=st.frozensets(st.integers(-60, 60), max_size=40),
       steps=st.one_of(
           st.builds(lambda r, zero: frozenset(range(-r, r + 1)) - zero,
                     st.integers(0, 6), st.sampled_from([frozenset(), {0}])),
           st.frozensets(st.integers(-6, 6), max_size=6)))
def test_z_chain_partition_matches_bfs(elems, steps):
    """The gap split on z gives the BFS partition, list order included."""
    sample = FiniteSample(Z, elems)
    radius = Radius(Z, steps)
    K = radius.symmetrize()
    assert chain_partition(sample, radius) == Group.chain_partition(Z, sample, K)


# name -> (group, F, F u F^-1); every z2sum mask is its own inverse
SYMMETRIZE_CASES = {
    "z": (Z, {1, 2}, {-2, -1, 1, 2}),
    "z^2": (_LATTICE, {(1, 0), (2, -1)}, {(1, 0), (-1, 0), (2, -1), (-2, 1)}),
    "z2sum:5": (_XOR, {0b101, 0b10}, {0b101, 0b10}),
    "free:2": (_FREE, {"ab"}, {"ab", "BA"}),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIZE_CASES))
def test_radius_symmetrize(name):
    group, F, expected = SYMMETRIZE_CASES[name]
    r = Radius(group, frozenset(F))
    assert r.is_symmetric() == (F == expected)
    s = r.symmetrize()
    assert s == frozenset(expected)
    assert Radius(group, s).is_symmetric()


def test_chain_component_examples():
    sample = FiniteSample(Z, frozenset({0, 1, 2, 10, 11}))
    assert chain_component(sample, 0, zradius(-1, 1)) == {0, 1, 2}
    assert chain_component(sample, 10, zradius(-1, 1)) == {10, 11}
    # radius covering all differences reaches everything in one step
    big = zradius(*{a - b for a in sample.elements for b in sample.elements})
    assert chain_component(sample, 0, big) == sample.elements
    single = FiniteSample(Z, frozenset({7}))
    assert chain_component(single, 7, zradius(-1, 1)) == {7}
    with pytest.raises(GroupError):
        chain_component(sample, 5, zradius(-1, 1))


def test_chain_partition_is_partition():
    rng = random.Random(7)
    elems = frozenset(rng.sample(range(-300, 300), 80))
    sample = FiniteSample(Z, elems)
    comps = chain_partition(sample, zradius(1, 2))
    assert sorted(x for c in comps for x in c) == sorted(elems)
    total = sum(len(c) for c in comps)
    assert total == len(elems)


def test_chain_component_matches_union_find():
    rng = random.Random(11)
    for _ in range(30):
        elems = frozenset(rng.sample(range(-500, 500), rng.randint(5, 120)))
        kset = frozenset(rng.sample(range(1, 6), rng.randint(1, 3)))
        radius = Radius(Z, kset)
        expected = {frozenset(c)
                    for c in oracles.union_find_components(Z, elems, kset)}
        got = {frozenset(c) for c in chain_partition(FiniteSample(Z, elems), radius)}
        assert got == expected
        a = min(elems)
        comp = chain_component(FiniteSample(Z, elems), a, radius)
        assert comp in expected


# name -> (group, universe to draw the sample, its start points and K
# from); z2sum:6 draws masks wider than m too
CHAIN_FAMILIES = {
    "z^2": (_LATTICE, sorted(_LATTICE.window_elements(4))),
    "z2sum:6": (XorGroup(6), list(range(2**8))),
    "free:2": (_FREE, sorted(_FREE.word_ball(3), key=_FREE.sort_key)),
}


@pytest.mark.parametrize("family", sorted(CHAIN_FAMILIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_chain_partition_matches_union_find(family, data):
    group, universe = CHAIN_FAMILIES[family]
    elements = st.sampled_from(universe)
    elems = data.draw(st.frozensets(elements, min_size=1, max_size=40))
    K = data.draw(st.one_of(
        st.sampled_from([word_radius(group, r).elements for r in (1, 2)]),
        st.frozensets(elements, min_size=1, max_size=4)))
    radius = Radius(group, K)
    sample = FiniteSample(group, elems)
    expected = set(oracles.union_find_components(group, elems, K))
    comps = chain_partition(sample, radius)
    assert set(comps) == expected and len(comps) == len(expected)
    leasts = [min(c, key=group.sort_key) for c in comps]
    assert leasts == sorted(leasts, key=group.sort_key)
    starts = st.sampled_from(sorted(elems, key=group.sort_key))
    for a in data.draw(st.lists(starts, min_size=1, max_size=3)):
        comp = chain_component(sample, a, radius)
        assert a in comp and comp in expected


@given(st.data())
def test_chain_component_monotone_in_radius(data):
    elems = data.draw(st.frozensets(st.integers(-40, 40), min_size=1, max_size=25))
    small = data.draw(st.frozensets(st.integers(1, 4), min_size=1, max_size=2))
    extra = data.draw(st.frozensets(st.integers(1, 6), max_size=2))
    sample = FiniteSample(Z, elems)
    a = min(elems)
    c1 = chain_component(sample, a, Radius(Z, small))
    c2 = chain_component(sample, a, Radius(Z, small | extra))
    assert c1 <= c2


def test_cellularity_powers_of_four():
    elems = frozenset(4**n for n in range(9))
    sample = FiniteSample(Z, elems, 4**9)
    rep = cellularity_probe(sample, zradius(-1, 1), preset("small"))
    assert rep.verdict == "CELLULAR_AT_SCALE"
    assert rep.kprime_label == "wordball:1"


def test_cellularity_window_fails():
    sample = enumerate_window(Z, 64)
    rep = cellularity_probe(sample, zradius(-1, 1), preset("small"))
    assert rep.verdict == "NOT_CELLULAR_AT_SCALE"
    assert rep.offender is not None


def test_cellularity_singleton():
    sample = FiniteSample(Z, frozenset({3}), 100)
    rep = cellularity_probe(sample, zradius(-1, 1), preset("small"))
    assert rep.verdict == "CELLULAR_AT_SCALE"


def test_cellularity_wide_z2sum_mask_is_not_cellular():
    # 35 = 3 ^ 32 differs from 3 in bit 5, outside the 4 declared
    # coordinates, so no word ball of z2sum:4 holds the component {3, 35}
    xor4 = XorGroup(4)
    sample = FiniteSample(xor4, frozenset({3, 35}), 6)
    rep = cellularity_probe(sample, Radius(xor4, frozenset({32})), preset("small"))
    assert rep.verdict == "NOT_CELLULAR_AT_SCALE"
    assert rep.kprime_label is None and rep.offender == 3


def test_cellularity_builds_no_word_ball_over_the_cap():
    # wordball(8) of free:5 holds about 5.4e7 words, over WINDOW_CAP; the
    # radius is read off word lengths, so the verdict needs no such ball
    free5 = FreeGroup(5)
    chain = frozenset("a" * n for n in range(9))
    sample = FiniteSample(free5, chain, 16)
    rep = cellularity_probe(sample, Radius(free5, frozenset({"a"})), preset("large"))
    assert (rep.verdict, rep.kprime_label) == ("CELLULAR_AT_SCALE", "wordball:8")


# name -> (group, elements near the identity that samples, radii and
# images are drawn from).  The z2sum:4 universe holds masks up to 3 bits
# wider than the declared coordinates, which lie in no word ball.
REACH_FAMILIES = {
    "z": (Z, list(range(-12, 13))),
    "z^2": (_LATTICE, sorted(_LATTICE.window_elements(4))),
    "z2sum": (XorGroup(4), list(range(2**7))),
    "free": (_FREE, sorted(_FREE.word_ball(3), key=_FREE.sort_key)),
}


@pytest.mark.parametrize("family", sorted(REACH_FAMILIES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cellularity_and_prec_match_the_word_ball_oracle(family, data):
    group, universe = REACH_FAMILIES[family]
    elements = st.sampled_from(universe)
    scale = preset(data.draw(st.sampled_from(["small", "medium", "large"])))
    margin = scale.margin_for(group)
    elems = data.draw(st.frozensets(elements, max_size=20)) | {group.identity()}
    sample = FiniteSample(group, elems, margin + data.draw(st.integers(0, 4)))
    steps = data.draw(st.frozensets(elements, max_size=3))
    interior = sample.interior(margin)
    rep = cellularity_probe(sample, Radius(group, steps), scale)
    assert (rep.verdict, rep.kprime_label, rep.offender) == \
        oracles.cellularity_direct(group, elems, interior, steps,
                                   scale.f_max)
    images = data.draw(st.lists(elements, min_size=len(elems),
                                max_size=len(elems)))
    mapping = dict(zip(sample.ordered, images))
    rep = prec_mapping_check(mapping, sample, Radius(group, steps), scale)
    assert (rep.verdict, rep.k_label, rep.witness) == \
        oracles.prec_direct(group, mapping, interior, steps, scale.f_max)


def test_prec_identity_and_doubling():
    window = 100
    domain = enumerate_window(Z, window)
    ident = {x: x for x in domain.elements}
    scale = preset("small")
    rep = prec_mapping_check(ident, domain, zradius(-1, 1), scale)
    assert rep.verdict == "PREC"
    assert rep.k_label == "wordball:1"
    double = {x: 2 * x for x in domain.elements}
    rep2 = prec_mapping_check(double, domain, zradius(-1, 1), scale)
    assert rep2.verdict == "PREC"
    assert rep2.k_label == "wordball:2"


def test_prec_square_fails():
    window = 100
    domain = enumerate_window(Z, window)
    square = {x: x * x for x in domain.elements}
    rep = prec_mapping_check(square, domain, zradius(-1, 1), preset("medium"))
    assert rep.verdict == "NOT_PREC"
    assert rep.witness is not None


def test_prec_composition():
    window = 200
    domain = enumerate_window(Z, window)
    scale = preset("medium")
    f = {x: 2 * x for x in domain.elements}
    rep_f = prec_mapping_check(f, domain, zradius(-1, 1), scale)
    image = FiniteSample(Z, frozenset(f.values()), 400)
    g = {y: 2 * y for y in image.elements}
    k_radius = word_radius(Z, int(rep_f.k_label.split(":")[1]))
    rep_g = prec_mapping_check(g, image, k_radius, scale)
    assert rep_g.verdict == "PREC"
    comp = {x: g[f[x]] for x in domain.elements}
    rep_c = prec_mapping_check(comp, domain, zradius(-1, 1), scale)
    assert rep_c.verdict == "PREC"
    assert int(rep_c.k_label.split(":")[1]) <= int(rep_g.k_label.split(":")[1])


def test_cellularity_probe_builds_no_word_ball(monkeypatch):
    import coarsesets.geometry as geometry
    built = []
    original = geometry.word_ball_elements

    def counted(group, r):
        built.append(r)
        return original(group, r)

    sample = SetSpec.make("z", "periodic", window_extent=2000, modulus=50,
                          residues=["0"]).resolve()
    radius = word_radius(Z, 2)
    monkeypatch.setattr(geometry, "word_ball_elements", counted)
    rep = cellularity_probe(sample, radius, preset("medium"))
    assert rep.verdict == "CELLULAR_AT_SCALE" and rep.interior_size == 77
    assert built == []
