import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from coarsesets import classifiers, groups
from coarsesets.budgets import Scale, preset
from coarsesets.classifiers import (SparseReport, classify,
                                    isolated_balls_verdict, sparse_witness,
                                    thin_degree)
from coarsesets.geometry import Radius, word_radius
from coarsesets.groups import (FiniteSample, FreeGroup, GroupError, IntGroup,
                               LatticeGroup, XorGroup, enumerate_window,
                               group_from_spec, reduce_word)
from coarsesets.recipes import SetSpec
from coarsesets.structures import gen_cantor_geodesic

import oracles

Z = IntGroup()
SMALL = preset("small")
MEDIUM = preset("medium")


def resolved(kind, group="z", window=None, **params):
    return SetSpec.make(group, kind, window_extent=window, **params).resolve()


def test_presets():
    assert SMALL.f_max == 3 and MEDIUM.f_max == 5
    assert preset("large").pool_cap == 4096
    with pytest.raises(ValueError):
        preset("huge")


@pytest.mark.parametrize("spec", ["z", "z^2", "z^3", "z2sum:4", "z2sum:6",
                                  "free:1", "free:2"])
@pytest.mark.parametrize("name", ["small", "medium", "large"])
def test_h_candidates_are_the_thickened_word_balls(spec, name):
    """Each enlargement H of F = wordball(r), wordball(r + t), is
    wordball(t).(wordball(r) u {e}), for every ladder radius t whose
    products stay under 10**5 pairs."""
    group = group_from_spec(spec)
    scale = preset(name)
    checked = 0
    for r in range(scale.f_max + 1):
        base = group.word_ball(r) | {group.identity()}
        for t in group.clamp_ladder(scale.ladder):
            if group.word_ball_size(t) * len(base) <= 10**5:
                assert group.word_ball(r + t) == {
                    x for b in base
                    for x in group.right_translates(group.word_ball(t), b)}
                checked += 1
    assert checked >= scale.f_max + 1


def test_thin_powers_of_four():
    sample = resolved("powers", base=4, window=512)
    rep = thin_degree(sample, Radius(Z, frozenset({-1, 1})), MEDIUM)
    assert rep.degree == 1
    assert rep.exceptional == ()


def test_thin_window_interval():
    sample = resolved("window", window=256)
    rep = thin_degree(sample, Radius(Z, frozenset({-1, 1})), MEDIUM)
    assert rep.degree == 3


class _PairedPowers:
    """Window-scaled recipe: {2^n} united with {2^n + 1}."""

    def resolve(self, group, window):
        out = set()
        v = 2
        while v + 1 <= window:
            out.add(v)
            out.add(v + 1)
            v *= 2
        return FiniteSample(group, frozenset(out), window, self)


def test_thin_paired_powers():
    sample = _PairedPowers().resolve(Z, 512)
    rep = thin_degree(sample, Radius(Z, frozenset({-1, 1})), MEDIUM)
    assert rep.degree == 2
    assert rep.exceptional == (3, 4)


def test_thin_degree_monotone_in_radius():
    sample = resolved("powers", base=2, window=512)
    degrees = [thin_degree(sample, word_radius(Z, r), MEDIUM).degree
               for r in range(0, 6)]
    assert degrees == sorted(degrees)


def test_thin_window_too_small():
    sample = resolved("window", window=16)
    with pytest.raises(GroupError):
        thin_degree(sample, word_radius(Z, 1), MEDIUM)


class _Drawn:
    """Window-scaled test recipe: ``inner`` in the window it was drawn
    for, and ``inner | extra`` in every other window, so that the
    enlarged window adds points next to shared interior points."""

    def __init__(self, window, inner, extra):
        self.window, self.inner, self.extra = window, inner, extra

    def resolve(self, group, window):
        elements = self.inner
        if window != self.window:
            elements = elements | self.extra
        return FiniteSample(group, elements, window, self)


# each family's elements in the window of an extent
THIN_FAMILIES = {
    "z": (Z, lambda n: st.integers(-n, n)),
    "z^2": (LatticeGroup(2), lambda n: st.tuples(st.integers(-n, n),
                                                 st.integers(-n, n))),
    "z2sum:6": (XorGroup(6), lambda n: st.integers(0, 2**n - 1)),
    "free:2": (FreeGroup(2), lambda n: st.text(alphabet="abAB", max_size=n)
               .map(reduce_word)),
}


@pytest.mark.parametrize("spec", sorted(THIN_FAMILIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_thin_degree_matches_the_loop_oracle(spec, data):
    group, points = THIN_FAMILIES[spec]
    scale = data.draw(st.sampled_from([SMALL, MEDIUM]))
    margin = scale.margin_for(group)
    k = data.draw(st.integers(0, 4))
    if isinstance(group, XorGroup):
        # every mask is interior; a window under m coordinates lets the
        # F-balls of shared points reach the enlarged window
        window = near = 2 + k
    else:
        window, near = margin + k, k + 1
    inner = data.draw(st.frozensets(st.one_of(points(near), points(window)),
                                    max_size=25)) | {group.identity()}
    # neighbours of inner points give shared points unequal ball sizes
    steps = data.draw(st.lists(st.sampled_from(group.generators()),
                               max_size=2))
    extra = data.draw(st.frozensets(st.one_of(
        points(near), points(group.enlarged_extent(window))), max_size=25)
    ) | {group.mul(f, y) for f in steps for y in inner}
    samples = [_Drawn(window, inner, extra).resolve(group, window),
               FiniteSample(group, inner)]
    if spec == "z":
        # a window 64 wider, so that some powers are interior
        samples += [resolved("powers", window=window + 64, base=2),
                    resolved("periodic", window=window + 64, modulus=3,
                             residues=["0", "1"])]
    elif spec == "z2sum:6":
        samples.append(resolved("wn", spec, window, support=2))
    sample = data.draw(st.sampled_from(samples))
    radius = word_radius(group, data.draw(st.integers(0, scale.f_max)))
    rep = thin_degree(sample, radius, scale)
    assert (rep.degree, rep.exceptional, rep.interior_size) == \
        oracles.thin_degree_by_loop(sample, radius.elements, margin)


def test_sparse_evens_with_shifted_pair():
    sample = resolved("periodic", modulus=2, residues=["0"], window=256)
    xset = FiniteSample(Z, frozenset({0, 1}))
    rep = sparse_witness(sample, xset, MEDIUM)
    assert rep.verdict == "WITNESS_FOUND"
    assert rep.witness == (0, 1)
    assert rep.intersection == ()


def test_sparse_window_interval_fails():
    sample = resolved("window", window=128)
    rep = sparse_witness(sample, sample, MEDIUM)
    assert rep.verdict == "NO_WITNESS_AT_SCALE"


def test_sparse_ip_interval_fails():
    sample = resolved("ip", rule="powers", base=2, window=255)
    assert sample.elements == frozenset(range(1, 256))
    rep = sparse_witness(sample, sample, MEDIUM)
    assert rep.verdict == "NO_WITNESS_AT_SCALE"


def test_sparse_powers_of_two():
    sample = resolved("powers", base=2, window=512)
    rep = sparse_witness(sample, sample, MEDIUM)
    assert rep.verdict == "WITNESS_FOUND"


def test_sparse_witness_rejects_an_x_of_another_group():
    # the same integers in z2sum:5 would pass as a witness for the evens
    sample = resolved("periodic", modulus=2, residues=["0"], window=256)
    xset = FiniteSample(XorGroup(5), frozenset({0, 1}))
    with pytest.raises(GroupError, match="X belongs to a different group"):
        sparse_witness(sample, xset, MEDIUM)


def _sparse_reference(sample, xset, scale):
    """sparse_witness from the definition: every candidate F in order,
    with |n_{g in F} gA| taken from the translates of both samples."""
    group = sample.group
    outer = sample.outer
    pool = sorted(xset.elements, key=group.sort_key)[: max(scale.pool_cap // 16, 8)]
    candidates = [F for size in (1, 2, 3) for F in combinations(pool, size)]

    def meet(F, elements):
        return set.intersection(*({group.mul(g, a) for a in elements} for g in F))

    for checked, F in enumerate(candidates[: scale.pool_cap], 1):
        inner = meet(F, sample.elements)
        if len(inner) == len(meet(F, outer.elements)):
            return SparseReport("WITNESS_FOUND", F,
                                tuple(sorted(inner, key=group.sort_key)),
                                len(inner), checked)
    return SparseReport("NO_WITNESS_AT_SCALE", None, (), None,
                        min(len(candidates), scale.pool_cap))


# Windowed recipes, so that the enlarged window changes the sample, and X
# drawn from a wider universe, so that some translates leave the window.
# free:2 is the case that tells F[0]^-1.g from g.F[0]^-1.
_LATTICE, _FREE = LatticeGroup(2), FreeGroup(2)
SPARSE_FAMILIES = {
    "z": (st.one_of(
        st.builds(lambda n: SetSpec.make("z", "window", n),
                  st.integers(4, 40)),
        st.builds(lambda n, q, r: SetSpec.make(
            "z", "periodic", n, modulus=q, residues=[str(x) for x in r]),
            st.integers(8, 60), st.integers(2, 6),
            st.lists(st.integers(0, 5), min_size=1, max_size=3)),
        st.builds(lambda n, b: SetSpec.make("z", "powers", n, base=b),
                  st.integers(8, 200), st.integers(2, 4))),
        list(range(-120, 121))),
    "z^2": (st.builds(lambda n: SetSpec.make("z^2", "window", n),
                      st.integers(1, 2)),
            sorted(_LATTICE.window_elements(6))),
    "z2sum": (st.one_of(
        st.builds(lambda n: SetSpec.make("z2sum:5", "wn", n, support=n // 2),
                  st.integers(2, 5)),
        st.builds(lambda n: SetSpec.make("z2sum:5", "window", n),
                  st.integers(1, 4))),
        list(range(256))),
    "free": (st.builds(lambda n: SetSpec.make("free:2", "window", n),
                       st.integers(1, 2)),
             sorted(_FREE.word_ball(4), key=_FREE.sort_key)),
}


@pytest.mark.parametrize("family", sorted(SPARSE_FAMILIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sparse_witness_matches_definition(family, data):
    specs, universe = SPARSE_FAMILIES[family]
    sample = data.draw(specs).resolve()
    group = sample.group
    xset = FiniteSample(group, frozenset(data.draw(st.lists(
        st.sampled_from(universe), min_size=1, max_size=10, unique=True))))
    assert sparse_witness(sample, xset, SMALL) == \
        _sparse_reference(sample, xset, SMALL)


@pytest.mark.parametrize("window, masks", [
    (200, 1),       # 5 powers over span 80 (mask), 7 over span 728 (set)
    (10**5, 0),     # 11 and 12 powers, both far above span 64n (set)
])
@pytest.mark.parametrize("xs", [None, {0, 2, 8, 26, 80, 242, 700}])
@pytest.mark.parametrize("scale", [SMALL, MEDIUM], ids=["small", "medium"])
def test_sparse_witness_matches_definition_across_kernels(
        monkeypatch, window, masks, xs, scale):
    """The powers of 3 whose two windows count their sizes with
    different z kernels, or both with the set one (X = A when ``xs`` is
    None)."""
    sample = resolved("powers", base=3, window=window)
    xset = sample if xs is None else FiniteSample(Z, frozenset(xs))
    built = []
    bit_mask = groups._bit_mask
    monkeypatch.setattr(groups, "_bit_mask",
                        lambda *args: built.append(args) or bit_mask(*args))
    assert sparse_witness(sample, xset, scale) == \
        _sparse_reference(sample, xset, scale)
    assert len(built) == masks


def test_sparse_candidates_stop_at_the_pool_cap():
    # a pool of 8 gives 8 + 28 + 56 = 92 candidates, past the cap of 64
    sample = resolved("window", window=128)
    rep = sparse_witness(sample, sample, SMALL)
    assert rep.verdict == "NO_WITNESS_AT_SCALE"
    assert rep.candidates_checked == SMALL.pool_cap == 64


def test_sparse_candidates_count_every_subset_of_a_small_pool():
    sample = resolved("window", window=128)
    xset = FiniteSample(Z, frozenset(range(5)))
    rep = sparse_witness(sample, xset, SMALL)
    assert rep.verdict == "NO_WITNESS_AT_SCALE"
    assert rep.candidates_checked == 5 + 10 + 10


_POWERS = {"kind": "powers", "base": 2, "window": 512}
_THIRDS = {"kind": "periodic", "modulus": 3, "residues": ["0", "1"],
           "window": 64}


@pytest.mark.parametrize("recipe, xs, scale, position", [
    (_THIRDS, {0, 1, 2, 200, 300}, SMALL, 5 + 10 + 1),  # the first triple
    (_POWERS, None, SMALL, 8 + 1),                      # the first pair
    (_POWERS, None, MEDIUM, 10 + 1),                    # of all 10 powers
])
def test_sparse_candidates_checked_is_the_position_of_the_witness(
        recipe, xs, scale, position):
    """The winning F's 1-based position among the subsets of the pool in
    size, then lexicographic order (X = A when ``xs`` is None)."""
    sample = resolved(**recipe)
    xset = sample if xs is None else FiniteSample(Z, frozenset(xs))
    rep = sparse_witness(sample, xset, scale)
    assert rep.verdict == "WITNESS_FOUND"
    pool = xset.ordered[: max(scale.pool_cap // 16, 8)]
    order = [F for k in (1, 2, 3) for F in combinations(pool, k)]
    assert rep.candidates_checked == order.index(rep.witness) + 1 == position


def test_isolated_balls_powers():
    sample = resolved("powers", base=2, window=512)
    rep = isolated_balls_verdict(sample, MEDIUM)
    assert rep.verdict == "HAS_ISOLATED_BALLS"
    assert rep.winning_f == "wordball:0"
    assert [h for h, _ in rep.isolated_counts] == \
        [f"wordball:0+wordball:{t}" for t in MEDIUM.ladder]
    assert all(c >= 1 for _, c in rep.isolated_counts)


def test_isolated_balls_window():
    sample = resolved("window", window=128)
    rep = isolated_balls_verdict(sample, MEDIUM)
    assert rep.verdict == "NO_ISOLATED_BALLS_AT_SCALE"
    assert rep.refutations == tuple(
        (f"wordball:{r}", f"wordball:{r}+wordball:1")
        for r in range(MEDIUM.f_max + 1))


def test_isolated_balls_builds_no_enlargement_past_the_refuting_one(
        monkeypatch):
    # on a whole z^2 window every F = wordball(r) is refuted at t = 1, so
    # only the word balls of radius r and r + 1 may be built
    group = LatticeGroup(2)
    sample = enumerate_window(group, 32)
    built = []
    word_ball = LatticeGroup.word_ball

    def counted(self, r):
        built.append(r)
        return word_ball(self, r)

    monkeypatch.setattr(LatticeGroup, "word_ball", counted)
    rep = isolated_balls_verdict(sample, SMALL)
    assert rep.refutations == tuple(
        (f"wordball:{r}", f"wordball:{r}+wordball:1")
        for r in range(SMALL.f_max + 1))
    assert set(built) == set(range(SMALL.f_max + 2))


def test_isolated_balls_w2():
    sample = resolved("wn", group="z2sum:8", support=2)
    rep = isolated_balls_verdict(sample, MEDIUM)
    assert rep.verdict == "HAS_ISOLATED_BALLS"
    assert rep.winning_f == "wordball:2"


def test_isolated_balls_cantor():
    sample = gen_cantor_geodesic(5)
    rep = isolated_balls_verdict(sample, MEDIUM)
    assert rep.verdict == "NO_ISOLATED_BALLS_AT_SCALE"


def test_isolated_balls_ambient():
    ambient = resolved("window", window=128)
    sub = FiniteSample(Z, frozenset(range(-16, 17)), ambient.window)
    rep = isolated_balls_verdict(sub, MEDIUM, ambient=ambient)
    assert rep.universe == "AMBIENT"
    assert rep.verdict == "NO_ISOLATED_BALLS_AT_SCALE"
    with pytest.raises(GroupError):
        isolated_balls_verdict(
            FiniteSample(Z, frozenset({10**6}), ambient.window),
            MEDIUM, ambient=ambient)


def test_isolated_balls_rejects_an_ambient_of_another_group():
    # z2sum:5 holds the same integers, so the subset check alone passes
    sample = FiniteSample(Z, frozenset(range(32)), 128)
    ambient = FiniteSample(XorGroup(5), frozenset(range(32)))
    with pytest.raises(GroupError,
                       match="ambient set belongs to a different group"):
        isolated_balls_verdict(sample, MEDIUM, ambient=ambient)


def _direct_isolated_oracle(sample, scale):
    group = sample.group
    margin = scale.margin_for(group)
    window = sample.window
    interior = [y for y in sample.ordered
                if window is None
                or oracles.window_interior(group, window, y, margin)]
    return oracles.isolated_balls_direct(
        group, sample.elements, interior,
        *oracles.word_ball_families(group, scale))


def test_isolated_balls_oracle_equivalence():
    rng = random.Random(31)
    cases = []
    for _ in range(40):
        n = rng.randint(3, 60)
        spread = rng.choice([100, 400, 2000])
        cases.append(frozenset(rng.sample(range(-spread, spread), n)))
    cases.append(frozenset(2**n for n in range(10)))
    cases.append(frozenset(range(-80, 81)))
    cases.append(frozenset(range(-80, 81, 2)))
    cases.append(frozenset(range(-80, 81, 7)))
    cases.append(gen_cantor_geodesic(3).elements)
    cases.append(frozenset({0}))
    cases.append(frozenset({0, 1, 2, 100, 101, 5000}))
    cases.append(frozenset(n * n for n in range(30)))
    cases.append(frozenset(rng.sample(range(-10**6, 10**6), 50)))
    checked = 0
    for elems in cases:
        extent = max(max(abs(x) for x in elems) + 200, 256)
        sample = FiniteSample(Z, elems, extent)
        for scale in (SMALL, MEDIUM):
            rep = isolated_balls_verdict(sample, scale)
            assert rep.verdict == _direct_isolated_oracle(sample, scale), \
                (sorted(elems)[:8], scale.name)
            checked += 1
    assert checked >= 50


def test_budget_monotonicity():
    """Growing the F-family can only help HAS; growing the H-ladder can
    only help NO."""
    sample = resolved("powers", base=2, window=512)
    base = Scale("t", 2, (1, 3), 64, 2)
    more_f = Scale("t", 5, (1, 3), 64, 2)
    more_h = Scale("t", 2, (1, 3, 9, 27, 81), 64, 2)
    v0 = isolated_balls_verdict(sample, base).verdict
    if v0 == "HAS_ISOLATED_BALLS":
        assert isolated_balls_verdict(sample, more_f).verdict == v0
    win = resolved("window", window=128)
    w0 = isolated_balls_verdict(win, base).verdict
    if w0 == "NO_ISOLATED_BALLS_AT_SCALE":
        assert isolated_balls_verdict(win, more_h).verdict == w0


def test_classify_powers():
    report = classify(resolved("powers", base=2, window=512), MEDIUM)
    assert report["thin"]["degree"] == "1"
    assert report["sparse"]["verdict"] == "WITNESS_FOUND"
    assert report["isolated_balls"]["verdict"] == "HAS_ISOLATED_BALLS"
    assert int(report["pwip"]["max_depth"]) == 2
    assert report["consistent"] is True


def test_classify_window():
    report = classify(resolved("window", window=128), MEDIUM)
    assert report["thin"]["degree"] != "1"
    assert report["sparse"]["verdict"] == "NO_WITNESS_AT_SCALE"
    assert report["isolated_balls"]["verdict"] == "NO_ISOLATED_BALLS_AT_SCALE"
    assert int(report["pwip"]["max_depth"]) == MEDIUM.max_depth
    assert report["consistent"] is True


def test_classify_empty():
    report = classify(FiniteSample(Z, frozenset(), 64), SMALL)
    assert report["size"] == "0"
    assert report["consistent"] is True


# two largest chain clusters of equal size at the small margin (30 on z
# and z^2, 7 on free:2), after a smaller cluster that sorts first
TIED_CLUSTERS = {
    "z": (Z, {-200}, {0, 1, 2}, {100, 101, 102}),
    "z^2": (LatticeGroup(2), {(-100, 0)}, {(0, 0), (0, 1)},
            {(100, 0), (100, 1)}),
    "free:2": (FreeGroup(2), {"A" * 10}, {"a" * 10, "a" * 11},
               {"b" * 10, "b" * 11}),
}


@pytest.mark.parametrize("spec", sorted(TIED_CLUSTERS))
def test_largest_cluster_tie_goes_to_the_least_element(spec):
    group, small, first, second = TIED_CLUSTERS[spec]
    assert group.sort_key(min(first, key=group.sort_key)) < \
        group.sort_key(min(second, key=group.sort_key))
    sample = FiniteSample(group, frozenset(small | first | second))
    assert classifiers._largest_cluster(sample, SMALL).elements == first


def _counted_sparse_witness(monkeypatch):
    calls = []
    original = classifiers.sparse_witness

    def counted(sample, xset, scale):
        calls.append(xset)
        return original(sample, xset, scale)

    monkeypatch.setattr(classifiers, "sparse_witness", counted)
    return calls


def test_classify_reuses_the_full_probe_for_a_single_cluster(monkeypatch):
    calls = _counted_sparse_witness(monkeypatch)
    report = classify(FiniteSample(Z, frozenset({0, 1, 2, 5})), SMALL)
    assert len(calls) == 1
    full, cluster = report["sparse"]["probes"]
    assert (full.pop("x"), cluster.pop("x")) == ("full", "largest-cluster")
    assert full == cluster


def test_classify_probes_a_smaller_cluster_again(monkeypatch):
    calls = _counted_sparse_witness(monkeypatch)
    report = classify(FiniteSample(Z, frozenset({0, 1, 2, 100})), SMALL)
    assert len(calls) == 2
    assert calls[1].elements == {0, 1, 2}
    assert [p["x"] for p in report["sparse"]["probes"]] == \
        ["full", "largest-cluster"]


def test_classify_does_not_validate_the_margin_ball(monkeypatch):
    """Only the thin loop's word radii 0..f_max are validated; the word
    ball of the margin radius (7 on free:2 at small, 4373 words) that
    partitions the sample into clusters is not."""
    group = FreeGroup(2)
    validated = []
    validate = FreeGroup.validate

    def counted(self, el):
        validated.append(el)
        return validate(self, el)

    monkeypatch.setattr(FreeGroup, "validate", counted)
    classify(FiniteSample(group, frozenset({"a", "b", "ab"})), SMALL)
    assert len(validated) <= sum(map(group.word_ball_size,
                                     range(SMALL.f_max + 1)))
