import re
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from coarsesets.budgets import preset
from coarsesets.groups import (BudgetExceededError, FiniteSample, FreeGroup,
                               Group, GroupError, IntGroup, LatticeGroup,
                               XorGroup, enumerate_window,
                               group_from_spec, reduce_word,
                               word_ball_elements)
from coarsesets.recipes import SetSpec

import oracles


def groups_and_element_strategies():
    free = FreeGroup(2)
    word = st.text(alphabet="abAB", max_size=6).map(reduce_word)
    return [
        (IntGroup(), st.integers(-10**6, 10**6)),
        (LatticeGroup(2), st.tuples(st.integers(-1000, 1000),
                                    st.integers(-1000, 1000))),
        (XorGroup(8), st.integers(0, 2**12 - 1)),
        (free, word),
    ]


@pytest.mark.parametrize("group,elements", groups_and_element_strategies(),
                         ids=lambda v: getattr(v, "spec", ""))
@given(data=st.data())
def test_group_axioms(group, elements, data):
    a = data.draw(elements)
    b = data.draw(elements)
    c = data.draw(elements)
    e = group.identity()
    assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
    assert group.mul(a, e) == a
    assert group.mul(e, a) == a
    assert group.mul(a, group.inv(a)) == e
    assert group.mul(group.inv(a), a) == e


@pytest.mark.parametrize("group,elements", groups_and_element_strategies(),
                         ids=lambda v: getattr(v, "spec", ""))
@given(data=st.data())
def test_render_parse_round_trip(group, elements, data):
    a = data.draw(elements)
    assert group.parse(group.render(a)) == a


@pytest.mark.parametrize("group,elements", groups_and_element_strategies(),
                         ids=lambda v: getattr(v, "spec", ""))
@given(data=st.data())
def test_products_equal_pairwise_mul(group, elements, data):
    # right_translates(lefts, g) lists a.g for a in lefts, in their order
    lefts = data.draw(st.lists(elements, max_size=6))
    rights = data.draw(st.lists(elements, max_size=6))
    # right factors a^-1 and a^-1.b cancel a left factor a fully or in part
    rights += [group.inv(a) for a in lefts]
    rights += [group.mul(group.inv(a), b) for a in lefts for b in rights[:3]]
    rights.append(group.identity())
    for g in rights:
        assert list(group.right_translates(lefts, g)) == \
            [group.mul(a, g) for a in lefts]


def test_products_wide_masks_and_free_junctions():
    x = XorGroup(4)
    wide = [0b1, 0b1000000, 0b1010101010101]     # wider than m = 4
    assert list(x.right_translates(wide, 0b1000001)) == \
        [0b1000000, 0b1, 0b1010100010100]
    f = FreeGroup(3)
    assert [w for g in ["CBA", "CBa", "Cb", "a"]
            for w in f.right_translates(["abc"], g)] == ["", "aa", "abb", "abca"]
    assert list(f.right_translates(["", "C", "abc"], "")) == ["", "C", "abc"]


def test_every_family_has_bulk_kernels(monkeypatch):
    # every family has its own left translates, and free:k its own right
    # translates (the abelian default is the left kernel); neither calls
    # mul per element (these words do not cancel)
    families = Group.__subclasses__()
    assert {IntGroup, LatticeGroup, XorGroup, FreeGroup} <= set(families)
    for family in families:
        assert family.translates is not Group.translates, family.__name__
    assert FreeGroup.right_translates is not Group.right_translates
    for group in (IntGroup(), LatticeGroup(2), XorGroup(4), FreeGroup(2)):
        gens = group.generators()
        g, xs = gens[0], [group.identity(), gens[0], gens[-1]]
        lefts = [group.mul(g, x) for x in xs]
        rights = [group.mul(x, g) for x in xs]
        _refuse(monkeypatch, type(group), "mul")
        assert list(group.translates(g, xs)) == lefts
        assert list(group.right_translates(xs, g)) == rights


def _free_words(rank):
    """e, one letter, and reduced words of up to 6 letters."""
    letters = FreeGroup(rank).generators()
    return st.one_of(st.just(""), st.sampled_from(letters),
                     st.text(alphabet="".join(letters), min_size=2,
                             max_size=6).map(reduce_word))


# every family, plus z^1 and z^3 (the translate kernel zips one map per
# coordinate), z2sum masks wider than m, and free:1 and free:3 with g
# drawn from e, one letter and longer words (each a branch of the kernel)
TRANSLATE_FAMILIES = groups_and_element_strategies() + [
    (LatticeGroup(1), st.tuples(st.integers(-1000, 1000))),
    (LatticeGroup(3), st.tuples(*[st.integers(-1000, 1000)] * 3)),
    (XorGroup(3), st.integers(0, 2**9 - 1)),
    (FreeGroup(1), _free_words(1)),
    (FreeGroup(3), _free_words(3)),
]


@pytest.mark.parametrize("group,elements", TRANSLATE_FAMILIES,
                         ids=lambda v: getattr(v, "spec", ""))
@given(data=st.data())
def test_translates_is_mul_in_order(group, elements, data):
    g = data.draw(elements)
    xs = data.draw(st.lists(elements, max_size=8))
    # g^-1 cancels g fully; on free:k, a prefix of g^-1 cancels it in part
    xs.append(group.inv(g))
    if isinstance(group, FreeGroup):
        letters = group.generators()
        xs += [reduce_word(group.inv(g)[:k] + w)
               for k in range(len(g) + 1)
               for w in ("", letters[0], letters[-1])]
    data.draw(st.randoms()).shuffle(xs)
    for part in ([], xs[:1], xs):
        assert list(group.translates(g, part)) == [group.mul(g, x)
                                                   for x in part]


@pytest.mark.parametrize("group,elements", TRANSLATE_FAMILIES,
                         ids=lambda v: getattr(v, "spec", ""))
@given(data=st.data())
def test_sorted_is_sort_key_order(group, elements, data):
    s = data.draw(st.frozensets(elements, max_size=30))
    assert group.sorted(s) == sorted(s, key=group.sort_key)


@given(data=st.data())
def test_mul_matches_reference_definitions(data):
    lattice = LatticeGroup(3)
    point = st.tuples(*[st.integers(-1000, 1000)] * 3)
    a, b = data.draw(point), data.draw(point)
    assert lattice.mul(a, b) == tuple(x + y for x, y in zip(a, b))
    free = FreeGroup(3)
    word = st.text(alphabet="abcABC", max_size=8).map(reduce_word)
    u, w = data.draw(word), data.draw(word)
    k = data.draw(st.integers(0, len(u)))
    # v starts with the last k letters of u inverted, so u.v cancels there
    v = reduce_word(free.inv(u)[:k] + w)
    for right in (w, v, free.inv(u)):
        assert free.mul(u, right) == reduce_word(u + right)


@given(st.text(alphabet="abcABC", max_size=20))
def test_free_reduction_idempotent(word):
    once = reduce_word(word)
    assert reduce_word(once) == once


def test_free_reduction_cases():
    assert reduce_word("aA") == ""
    assert reduce_word("abBA") == ""
    assert reduce_word("abA") == "abA"
    g = FreeGroup(2)
    assert g.mul("ab", "Ba") == "aa"
    assert g.inv("ab") == "BA"
    assert g.parse("e") == ""
    assert g.render("") == "e"


def test_group_specs():
    assert group_from_spec("z").spec == "z"
    assert group_from_spec("z^3").spec == "z^3"
    assert group_from_spec("z2sum:16").spec == "z2sum:16"
    assert group_from_spec("free:2").spec == "free:2"
    assert group_from_spec(" Free:3 ") == FreeGroup(3)
    with pytest.raises(GroupError, match="unknown group spec: 'dihedral:6'"):
        group_from_spec("dihedral:6")
    for spec in ("z^0", "z^x", "z2sum:", "z2sum:0", "free:two", "free:27"):
        message = re.escape(f"bad group spec: '{spec}'")
        with pytest.raises(GroupError, match=message):
            group_from_spec(spec)


def test_parse_errors():
    with pytest.raises(GroupError):
        IntGroup().parse("five")
    with pytest.raises(GroupError):
        LatticeGroup(2).parse("1,2,3")
    with pytest.raises(GroupError):
        XorGroup(4).parse("012")
    with pytest.raises(GroupError):
        FreeGroup(1).parse("ab")


def test_xor_group_bits():
    g = XorGroup(4)
    assert g.parse("1010") == 0b0101
    assert g.render(0b0101) == "1010"
    assert g.render(0b10101) == "10101"      # wider than declared, still valid
    assert g.render(0) == "0000"
    assert g.parse(" 0000011 ") == 0b1100000
    assert XorGroup.norm(0b1101) == 3
    assert g.generators() == (1, 2, 4, 8)


def test_window_sizes_and_membership():
    z = IntGroup()
    w = z.window(5)
    assert w == 5
    assert z.window_size(w) == 11
    assert sorted(z.window_elements(w)) == list(range(-5, 6))
    assert z.interior(w, (5,), 0) and not z.interior(w, (6,), 0)
    assert z.interior(w, (2,), 3) and not z.interior(w, (3,), 3)

    l2 = LatticeGroup(2)
    assert l2.window_size(2) == 25
    assert len(list(l2.window_elements(2))) == 25

    x = XorGroup(3)
    assert x.window_size(3) == 8
    assert sorted(x.window_elements(3)) == list(range(8))

    f = FreeGroup(2)
    # 1 + 4 + 4*3 reduced words
    assert f.window_size(2) == 17
    words = list(f.window_elements(2))
    assert len(words) == 17
    assert len(set(words)) == 17
    assert all(w == reduce_word(w) for w in words)


def test_window_enlargement():
    assert IntGroup().enlarged_extent(100) == 400
    assert LatticeGroup(2).enlarged_extent(3) == 12
    assert XorGroup(8).enlarged_extent(8) == 10
    assert FreeGroup(2).enlarged_extent(5) == 6


def test_word_ball_elements():
    z = IntGroup()
    assert word_ball_elements(z, 3) == frozenset(range(-3, 4))
    l2 = LatticeGroup(2)
    b1 = word_ball_elements(l2, 1)
    assert b1 == frozenset({(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)})
    assert len(word_ball_elements(l2, 2)) == 13
    x = XorGroup(4)
    assert len(word_ball_elements(x, 2)) == 1 + 4 + 6
    f = FreeGroup(2)
    assert len(word_ball_elements(f, 1)) == 5
    assert len(word_ball_elements(f, 2)) == 17


def test_enumerate_window_sample():
    z = IntGroup()
    sample = enumerate_window(z, 3)
    assert sample.window == 3
    assert sample.ordered == tuple(range(-3, 4))
    assert len(sample) == 7
    assert 0 in sample


def test_zero_extent_is_a_window():
    z = IntGroup()
    assert SetSpec.make("z", "window").resolve(z, z.window(0)).elements == {0}
    xor = XorGroup(4)
    sample = SetSpec.make("z2sum:4", "window").resolve(xor, xor.window(0))
    assert sample.outer.window == 2
    assert len(sample.outer) == 4


# One group per family with a small window extent.
FAMILY_WINDOWS = [(IntGroup(), 7), (LatticeGroup(2), 3), (XorGroup(6), 4),
                  (FreeGroup(2), 3)]


@pytest.mark.parametrize("group,extent", FAMILY_WINDOWS,
                         ids=lambda v: getattr(v, "spec", str(v)))
def test_window_protocol(group, extent):
    elements = list(group.window_elements(extent))
    assert group.window_size(extent) == len(set(elements)) == len(elements)
    assert all(group.interior(extent, (el,), 0) for el in elements)
    outer = group.enlarged_extent(extent)
    assert group.window_size(outer) > group.window_size(extent)
    outer_elements = set(group.window_elements(outer))
    assert set(elements) <= outer_elements
    # membership picks out exactly the inner window, one element at a
    # time and in bulk
    assert {el for el in outer_elements
            if group.interior(extent, (el,), 0)} == set(elements)
    outer_ordered = tuple(group.sorted(outer_elements))
    assert set(group.interior(extent, outer_ordered, 0)) == set(elements)


# z2sum windows of at least m coordinates only: narrower ones keep every
# mask of the window interior, which is no margin-ball rule
DEFINITION_EXTENTS = {XorGroup(3): range(3, 6)}


@pytest.mark.parametrize("group", [IntGroup(), LatticeGroup(2),
                                   LatticeGroup(3), FreeGroup(1),
                                   FreeGroup(2), XorGroup(3)],
                         ids=lambda g: g.spec)
def test_window_interior_is_its_definition(group):
    # el is interior at a margin exactly when the window holds every
    # point of the margin word ball around it.  The window is its element
    # set, not interior, which is the window at margin 0.
    for extent in DEFINITION_EXTENTS.get(group, range(5)):
        window = set(group.window_elements(extent))
        for margin in range(extent + 1):
            ball = group.word_ball(margin)
            for el in window:
                fits = {group.mul(f, el) for f in ball} <= window
                assert bool(group.interior(extent, (el,), margin)) == fits


@pytest.mark.parametrize("group,extent", FAMILY_WINDOWS,
                         ids=lambda v: getattr(v, "spec", str(v)))
def test_word_ball_is_generator_bfs(group, extent):
    ball = {group.identity()}
    for r in range(extent + 1):
        assert word_ball_elements(group, r) == ball
        ball |= {group.mul(g, w) for w in ball for g in group.generators()}


@pytest.mark.parametrize("group", [IntGroup(), LatticeGroup(2),
                                   LatticeGroup(3), XorGroup(4), FreeGroup(1),
                                   FreeGroup(2)], ids=lambda g: g.spec)
def test_word_ball_size_counts_the_ball(group):
    for r in range(7):
        assert group.word_ball_size(r) == len(word_ball_elements(group, r))


def test_oversized_balls_and_windows_raise_before_building():
    for group in (IntGroup(), LatticeGroup(3), FreeGroup(2)):
        with pytest.raises(BudgetExceededError):
            word_ball_elements(group, 10**8)
        with pytest.raises(BudgetExceededError):
            enumerate_window(group, 10**8)
    # a z2sum ball stops growing at the coordinate count
    assert len(word_ball_elements(XorGroup(4), 10**8)) == 16
    with pytest.raises(BudgetExceededError):
        word_ball_elements(XorGroup(10**8), 1)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_free_word_ball_is_every_reduced_word(rank):
    group = FreeGroup(rank)
    letters = group.generators()
    for r in range(5):
        words = {"".join(w) for n in range(r + 1)
                 for w in product(letters, repeat=n)
                 if all(a != b.swapcase() for a, b in zip(w, w[1:]))}
        assert group.word_ball(r) == words
        assert group.word_ball_size(r) == len(words)


# every family, plus z^1, z^3, z2sum windows wider than m, free:1 and free:3
INTERIOR_WINDOWS = FAMILY_WINDOWS + [
    (LatticeGroup(1), 5), (LatticeGroup(3), 2), (XorGroup(3), 5),
    (FreeGroup(1), 4), (FreeGroup(3), 2)]


@pytest.mark.parametrize("group,extent", INTERIOR_WINDOWS,
                         ids=lambda v: getattr(v, "spec", str(v)))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_interior_is_window_interior_in_order(group, extent, data):
    window = sorted(group.window_elements(extent), key=group.sort_key)
    elements = data.draw(st.frozensets(st.sampled_from(window)))
    sample = FiniteSample(group, elements, extent)
    for margin in range(extent + 2):
        interior = sample.interior(margin)
        assert interior == tuple(
            y for y in sample.ordered
            if oracles.window_interior(group, extent, y, margin))
        # built once per margin, and a tuple, so no caller can alter it
        assert isinstance(interior, tuple)
        assert sample.interior(margin) is interior
    assert FiniteSample(group, elements).interior(1) == sample.ordered


def test_z2sum_interior_builds_no_power_of_two():
    # the masks of the window of extent e are those of bit length <= e;
    # the rule must not build the 10^8-bit integer 2^e to say so
    g = XorGroup(4)
    assert g.interior(3, (0, 1, 7, 8, 9), 0) == (0, 1, 7)
    masks = (0, 5, 1 << 40)
    tracemalloc.start()
    try:
        assert g.interior(10**8, masks, 2) == masks
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_free_window_is_word_ball():
    f = FreeGroup(3)
    for n in range(5):
        assert frozenset(f.window_elements(n)) == word_ball_elements(f, n)


def test_negative_extents_rejected():
    for group, _ in FAMILY_WINDOWS:
        with pytest.raises(GroupError, match="got -1"):
            group.window(-1)
        with pytest.raises(GroupError, match="got -1"):
            enumerate_window(group, -1)
        with pytest.raises(GroupError):
            group.window(-3)
        with pytest.raises(GroupError):
            word_ball_elements(group, -1)


LADDERS = {
    "z": {"small": (1, 3, 9, 27), "medium": (1, 3, 9, 27, 81),
          "large": (1, 3, 9, 27, 81, 243)},
    "z^2": {"small": (1, 3, 9, 27), "medium": (1, 3, 9, 27, 81),
            "large": (1, 3, 9, 27, 81, 243)},
    "z2sum:10": {"small": (1, 3, 9, 10), "medium": (1, 3, 9, 10),
                 "large": (1, 3, 9, 10)},
    "z2sum:2": {"small": (1, 2), "medium": (1, 2), "large": (1, 2)},
    "free:2": {"small": (1, 2, 3, 4), "medium": (1, 2, 3, 4, 5),
               "large": (1, 2, 3, 4, 5, 6)},
}


@pytest.mark.parametrize("spec", sorted(LADDERS))
def test_ladder_for_each_family(spec):
    group = group_from_spec(spec)
    for name, ladder in LADDERS[spec].items():
        scale = preset(name)
        assert group.clamp_ladder(scale.ladder) == ladder
        assert scale.margin_for(group) == scale.f_max + ladder[-1]


@pytest.mark.parametrize("spec,extent", [("z", 512), ("z^2", 64),
                                         ("z2sum:5", 5), ("z2sum:12", 12),
                                         ("free:2", 8)])
def test_default_window_extent(spec, extent):
    sample = SetSpec.make(spec, "explicit", elements=()).resolve()
    assert sample.window == extent


@pytest.mark.parametrize("group,extent", FAMILY_WINDOWS,
                         ids=lambda v: getattr(v, "spec", str(v)))
def test_norm_is_word_length(group, extent):
    inner = set()
    for r in range(extent + 1):
        ball = word_ball_elements(group, r)
        assert {group.norm(el) for el in ball - inner} <= {r}
        inner = ball
    assert IntGroup().norm(-7) == 7
    assert LatticeGroup(3).norm((2, -3, 0)) == 5
    assert XorGroup(4).norm(0b10110) == 3     # wider than declared
    assert FreeGroup(2).norm("aBB") == 3


def _norm_order(group, elements):
    return sorted(elements, key=lambda g: (group.norm(g), group.sort_key(g)))


def _words(max_size):
    return st.text(alphabet="abAB", max_size=max_size).map(reduce_word)


# name -> (group, element strategy).  z/dense samples span at most 24,
# so their pools come from the bit mask of IntGroup._dense_quotients
# before any ball; the other dense universes fill the small word balls,
# so their pools come from the balls while the cap is small; sparse ones
# run out of probes and take the full build; z2sum:3 masks with bits at
# 3 and above lie outside every word ball and skip the balls.
POOL_UNIVERSES = {
    "z/dense": (IntGroup(), st.integers(-12, 12)),
    "z/sparse": (IntGroup(), st.integers(-10**6, 10**6)),
    "z^2/dense": (LatticeGroup(2), st.tuples(st.integers(-3, 3),
                                             st.integers(-3, 3))),
    "z^2/sparse": (LatticeGroup(2), st.tuples(st.integers(-1000, 1000),
                                              st.integers(-1000, 1000))),
    "z2sum/dense": (XorGroup(5), st.integers(0, 31)),
    "z2sum/wide": (XorGroup(3), st.integers(0, 2**7 - 1)),
    "free/dense": (FreeGroup(2), _words(3)),
    "free/sparse": (FreeGroup(2), _words(10)),
}


@pytest.mark.parametrize("name", sorted(POOL_UNIVERSES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_quotient_pool_matches_brute_force(name, data):
    group, elements = POOL_UNIVERSES[name]
    sample = data.draw(st.lists(elements, min_size=1, max_size=40,
                                unique=True))
    cap = data.draw(st.integers(1, 3) | st.integers(4, 3000))
    ordered = sorted(sample, key=group.sort_key)
    quotients = {group.mul(y, group.inv(x)) for x in ordered for y in ordered}
    expected = _norm_order(group, quotients)
    assert group.norm_sorted(quotients) == expected
    assert group.norm_sorted(quotients, cap) == expected[:cap]
    assert group.quotient_pool(ordered, cap) == expected[:cap]


@pytest.mark.parametrize("group,extent", FAMILY_WINDOWS,
                         ids=lambda v: getattr(v, "spec", str(v)))
def test_quotient_pool_of_one_element_is_the_identity(group, extent):
    for el in list(group.window_elements(extent))[:5]:
        for cap in (1, 2, 3):
            assert group.quotient_pool([el], cap) == [group.identity()]


@pytest.mark.parametrize("group,extent", FAMILY_WINDOWS,
                         ids=lambda v: getattr(v, "spec", str(v)))
def test_quotient_pool_paths(group, extent):
    window = sorted(group.window_elements(extent), key=group.sort_key)
    quotients = {group.mul(y, group.inv(x)) for x in window for y in window}
    # a window fills its small word balls: the pool comes from them
    pool = group._ball_quotients(window, 4)
    assert pool == _norm_order(group, quotients)[:4]
    # a window's quotients outnumber every ball smaller than the window
    assert group._ball_quotients(window, len(quotients)) is None


@st.composite
def _z_samples(draw):
    """A sorted z sample of n >= 2 elements whose span max - min lies
    either side of the mask path's switches (1024 before the balls, 64n
    after them) or of n^2, or is wider."""
    n = draw(st.integers(2, 40))
    span = draw(st.sampled_from([1023, 1024, 1025, 64 * n - 1, 64 * n,
                                 64 * n + 1, n * n - 1, n * n, n * n + 1])
                | st.integers(n * n + 2, 10**6))
    inner = draw(st.lists(st.integers(1, span - 1), min_size=n - 2,
                          max_size=n - 2, unique=True))
    lo = draw(st.integers(-10**6, 10**6))
    return sorted(lo + x for x in [0, span, *inner])


@settings(max_examples=300, deadline=None)
@given(elements=_z_samples(),
       cap=st.integers(1, 3) | st.integers(4, 3000))
def test_z_quotient_pool_matches_brute_force(elements, cap):
    z = IntGroup()
    quotients = {y - x for x in elements for y in elements}
    assert z.quotient_pool(elements, cap) == _norm_order(z, quotients)[:cap]


def _refuse(monkeypatch, cls, name):
    def refuse(*args):
        raise AssertionError(f"{name} was called")

    monkeypatch.setattr(cls, name, refuse)


def _spy(monkeypatch, cls, name):
    """The results of every call of ``cls.name``, in order."""
    results = []
    method = getattr(cls, name)

    def spy(*args):
        results.append(method(*args))
        return results[-1]

    monkeypatch.setattr(cls, name, spy)
    return results


@pytest.mark.parametrize("extent", [500, 2000])
def test_z_window_pools_come_from_the_mask(monkeypatch, extent):
    # the window of 500 spans 1000 <= 1024, so the mask answers before
    # the balls; the balls of the window of 2000 reach its size before
    # they hold 4096 quotients, and the mask answers after them
    z = IntGroup()
    window = sorted(z.window_elements(extent))
    expected = _norm_order(z, range(-2 * extent, 2 * extent + 1))[:4096]
    balls = _spy(monkeypatch, Group, "_ball_quotients")
    _refuse(monkeypatch, IntGroup, "right_translates")
    assert z.quotient_pool(window, 4096) == expected
    assert balls == ([] if extent == 500 else [None])


def test_z_windows_past_the_cap_take_the_balls(monkeypatch):
    z = IntGroup()
    window = sorted(z.window_elements(10**5))
    masks = _spy(monkeypatch, IntGroup, "_dense_quotients")
    _refuse(monkeypatch, IntGroup, "right_translates")
    assert z.quotient_pool(window, 64) == _norm_order(z, range(-32, 33))[:64]
    assert masks == [None]      # declined before forming the mask


def test_z_mask_path_switches_at_1024_then_64n(monkeypatch):
    z = IntGroup()
    balls = _spy(monkeypatch, Group, "_ball_quotients")
    for span, probed in ((1024, 0), (1025, 1)):
        sample = [0, 1, 3, 7, span]
        expected = _norm_order(z, {y - x for x in sample for y in sample})
        assert z.quotient_pool(sample, 40) == expected
        assert len(balls) == probed
    # n = 20 and span 64n = 1280 > 1024: the mask after the balls fail
    at = [*range(19), 1280]
    expected = _norm_order(z, {y - x for x in at for y in at})
    monkeypatch.setattr(Group, "_ball_quotients", lambda *args: None)
    _refuse(monkeypatch, IntGroup, "right_translates")
    assert z.quotient_pool(at, 400) == expected
    with pytest.raises(AssertionError, match="right_translates"):
        z.quotient_pool(at[:-1] + [1281], 400)


def _overlap_size(elements, key):
    """|A n (n_{q in key} q + A)| from the definition, on z."""
    return sum(all(a - q in elements for q in key) for a in elements)


@st.composite
def _z_overlap_cases(draw):
    """A z set of n elements, dense (span <= 64n, the mask's side; at
    span 2n-4n most pairs of differences meet, which a key of two
    quotients needs to tell q.A from q^-1.A) or wide (in +-10^6), and
    keys of 0 to 2 quotients drawn from 0, the set's own differences,
    and quotients of either sign past its span."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        lo = draw(st.integers(-10**4, 10**4))
        width = draw(st.integers(2 * n, 4 * n) | st.just(64 * n))
        values = st.integers(lo, lo + width)
    else:
        values = st.integers(-10**6, 10**6)
    elements = draw(st.lists(values, min_size=n, max_size=n, unique=True))
    span = max(elements) - min(elements)
    picks = st.sampled_from(elements)
    quotients = (st.just(0)
                 | st.builds(lambda y, x: y - x, picks, picks)
                 | st.integers(-span - 2, span + 2)
                 | st.integers(span + 1, 10**12)
                 | st.integers(-10**12, -span - 1))
    keys = st.lists(quotients, max_size=2).map(tuple)
    return frozenset(elements), draw(st.lists(keys, min_size=1, max_size=8))


@settings(max_examples=300, deadline=None)
@given(case=_z_overlap_cases())
def test_z_overlap_counter_matches_the_set_kernel(case):
    elements, keys = case
    z = IntGroup()
    mask, base = z.overlap_counter(elements), Group.overlap_counter(z, elements)
    for key in keys:
        assert mask(key) == base(key) == _overlap_size(elements, key)


def test_z_overlap_counter_switches_at_64n(monkeypatch):
    # n = 20: at span 64n = 1280 the sizes come off the mask, with no
    # translate; at 64n + 1 the set kernel translates
    z = IntGroup()
    keys = [(), (0,), (1,), (-1, 2), (1280,), (-1280,), (1281,), (-3, 10**12)]
    at = frozenset([*range(19), 1280])
    expected = [_overlap_size(at, key) for key in keys]
    assert expected[:5] == [20, 20, 18, 16, 1]
    _refuse(monkeypatch, IntGroup, "translates")
    assert list(map(z.overlap_counter(at), keys)) == expected
    with pytest.raises(AssertionError, match="translates"):
        z.overlap_counter(at - {1280} | {1281})((1,))


@pytest.mark.parametrize("group", [g for g, _ in FAMILY_WINDOWS],
                         ids=lambda g: g.spec)
def test_quotient_pool_of_no_elements_is_empty(group):
    for cap in (1, 2, 4096):
        assert group.quotient_pool([], cap) == []


def test_quotient_pool_falls_back_on_sparse_sets_and_wide_masks():
    z = IntGroup()
    sparse = [3**k for k in range(12)]
    assert z._ball_quotients(sparse, 4) is None
    assert z.quotient_pool(sparse, 4) == [0, -2, 2, -6]
    wide = XorGroup(2)
    masks = [0, 1, 2, 3, 4]             # 4 = bit 2, outside z2sum:2's balls
    assert wide._ball_quotients(masks, 3) is None
    assert wide.quotient_pool(masks, 6) == [0, 1, 2, 4, 3, 5]


def test_sample_builds_its_quotient_pool_once(monkeypatch):
    calls = []
    build = IntGroup.quotient_pool

    def counted(self, elements, cap):
        calls.append(cap)
        return build(self, elements, cap)

    monkeypatch.setattr(IntGroup, "quotient_pool", counted)
    sample = FiniteSample(IntGroup(), frozenset(range(-20, 21)))
    first = sample.quotient_pool(10)
    assert sample.quotient_pool(10) is first
    assert sample.quotient_pool(5) == first[:5]
    assert calls == [10, 5]


# every family, with z^1, z^3 and the free groups of ranks 1 to 3
ORDER_GROUPS = [IntGroup(), LatticeGroup(1), LatticeGroup(2), LatticeGroup(3),
                XorGroup(5), FreeGroup(1), FreeGroup(2), FreeGroup(3)]


@pytest.mark.parametrize("group", ORDER_GROUPS, ids=lambda g: g.spec)
def test_windows_are_generated_in_sort_key_order(group):
    for extent in range(6):
        window = list(group.window_elements(extent))
        assert window == group.sorted(set(window))
        assert group.word_ball(extent) == oracles.bfs_word_ball(group, extent)


@pytest.mark.parametrize("group", ORDER_GROUPS, ids=lambda g: g.spec)
def test_window_samples_are_never_sorted(monkeypatch, group):
    extent, outer = 2, group.enlarged_extent(2)
    expected = {e: tuple(group.sorted(group.window_elements(e)))
                for e in (extent, outer)}
    _refuse(monkeypatch, Group, "sorted")
    _refuse(monkeypatch, FreeGroup, "sorted")
    assert enumerate_window(group, extent).ordered == expected[extent]
    spec = SetSpec.make(group.spec, "window")
    sample = spec.resolve(group, extent)
    assert sample.ordered == expected[extent]
    assert sample.elements == frozenset(expected[extent])
    assert sample.recipe is spec and sample.window == extent
    assert sample.outer.window == outer
    assert sample.outer.ordered == expected[outer]


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 3), data=st.data())
def test_lattice_interior_is_the_box(d, data):
    group = LatticeGroup(d)
    points = data.draw(st.frozensets(
        st.tuples(*[st.integers(-6, 6)] * d), max_size=40))
    ordered = tuple(sorted(points))
    extent = data.draw(st.integers(0, 5))
    margin = data.draw(st.integers(0, extent + 3))
    interior = group.interior(extent, ordered, margin)
    assert isinstance(interior, tuple)
    assert interior == oracles.box_interior(ordered, extent, margin)
    # the identity alone, as the CLI asks before it builds a sample
    e = (group.identity(),)
    assert group.interior(extent, e, margin) == (e if margin <= extent else ())
