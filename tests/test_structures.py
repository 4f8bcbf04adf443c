import contextlib
import dataclasses
import functools
import random
import signal
import tracemalloc
from unittest import mock

import pytest
from hypothesis import Phase, given, settings, strategies as st

from coarsesets.groups import (FiniteSample, FreeGroup, GroupError, IntGroup,
                               LatticeGroup, XorGroup)
from coarsesets.structures import (CANTOR_WINDOW_MARGIN, NestedChain,
                                   PwipWitness, _chain_step, _subset_products,
                                   cantor_extent, cantor_levels_for_window,
                                   cantor_offsets, deepest_pwip, detect_pwip,
                                   extract_pwip_from_chain,
                                   gen_cantor_geodesic, gen_ip, gen_pwip,
                                   gen_wn)
from coarsesets.budgets import preset
from coarsesets.classifiers import classify
from coarsesets.density import density_pwip_experiment
from coarsesets.recipes import SetSpec
from coarsesets import structures

import oracles

Z = IntGroup()


def test_gen_ip_powers_of_two():
    sample = gen_ip(Z, (1, 2, 4, 8, 16))
    assert sample.elements == frozenset(range(1, 32))


def test_gen_ip_small_cases():
    assert gen_ip(Z, (5,)).elements == frozenset({5})
    f = FreeGroup(2)
    assert gen_ip(f, ("a", "b")).elements == frozenset({"a", "b", "ab"})
    with pytest.raises(GroupError):
        gen_ip(Z, (1, 1))
    with pytest.raises(GroupError):
        gen_ip(Z, ())


@pytest.mark.parametrize("gens, shifts, message", [
    ((1, 2, 1), (0, 0, 0), "generator sequence must be injective"),
    # every generator is validated before the repeat is refused, and
    # the shifts after it
    ((1, 1, 2.5), (0, 0, 0), "Z element must be int"),
    ((1, 1), (0, "x"), "generator sequence must be injective"),
    ((1, 2), (0, "x"), "Z element must be int"),
], ids=["repeat", "repeat-then-bad-generator", "repeat-and-bad-shift",
        "bad-shift"])
def test_gen_pwip_refusals(gens, shifts, message):
    with pytest.raises(GroupError, match=message):
        gen_pwip(Z, gens, shifts)


def test_gen_ip_prefix_monotone():
    rng = random.Random(3)
    for _ in range(20):
        gens = rng.sample(range(1, 200), 6)
        small = gen_ip(Z, gens[:4]).elements
        big = gen_ip(Z, gens).elements
        assert small <= big


def test_gen_pwip_worked_example():
    sample = gen_pwip(Z, (10, 100, 1000), (1, 2, 3))
    assert sample.elements == frozenset({11, 102, 112, 1003, 1013, 1103, 1113})


def test_gen_pwip_small_example():
    sample = gen_pwip(Z, (1, 2), (0, 10))
    assert sample.elements == frozenset({1, 12, 13})


def test_gen_pwip_identity_shifts_matches_ip():
    rng = random.Random(5)
    nonzero = [x for x in range(-100, 101) if x != 0]
    for _ in range(50):
        k = rng.randint(1, 6)
        gens = tuple(rng.sample(nonzero, k))
        assert gen_pwip(Z, gens, (0,) * k).elements == gen_ip(Z, gens).elements
    f = FreeGroup(2)
    assert (gen_pwip(f, ("a", "b"), ("", "")).elements
            == gen_ip(f, ("a", "b")).elements)


def test_gen_wn_counts():
    assert len(gen_wn(3, 2)) == 7
    assert gen_wn(4, 0).elements == frozenset({0})
    assert len(gen_wn(4, 2)) == 11
    with pytest.raises(GroupError):
        gen_wn(3, 4)
    sample = gen_wn(8, 2)
    assert all(XorGroup.norm(x) <= 2 for x in sample.elements)


def test_gen_wn_is_xor_word_ball():
    for m in range(1, 9):
        for n in range(m + 1):
            sample = gen_wn(m, n)
            assert sample.elements == XorGroup(m).word_ball(n)
            assert sample.elements == frozenset(
                x for x in range(2 ** m) if XorGroup.norm(x) <= n)
            assert sample.window == m


def test_cantor_offsets_separation():
    offs = cantor_offsets(6)
    assert offs[0] == 0
    for n in range(1, 6):
        assert offs[n] - (offs[n - 1] + 3**n) >= 2 * 3 ** (n + 1) - 3**n


def test_cantor_levels_for_window_boundaries():
    offs = cantor_offsets(13)
    for n in range(1, 13):
        fits = offs[n - 1] + 3 ** n + CANTOR_WINDOW_MARGIN
        assert cantor_levels_for_window(fits) == n
        assert cantor_levels_for_window(fits - 1) == max(n - 1, 1)
    assert cantor_levels_for_window(0) == 1
    assert cantor_levels_for_window(10 ** 9) == 12


def test_cantor_geodesic_blocks():
    sample = gen_cantor_geodesic(2)
    offs = cantor_offsets(2)
    block1 = {x - offs[0] for x in sample.elements if offs[0] <= x <= offs[0] + 3}
    assert block1 == {0, 2}
    block2 = {x - offs[1] for x in sample.elements if offs[1] <= x <= offs[1] + 9}
    assert block2 == {0, 2, 6, 8}


def test_cantor_geodesic_block_sizes():
    sample = gen_cantor_geodesic(5)
    offs = cantor_offsets(5)
    for n in range(1, 6):
        o = offs[n - 1]
        block = [x for x in sample.elements if o <= x <= o + 3**n]
        assert len(block) == 2**n


def test_cantor_geodesic_matches_the_digit_filter():
    for levels in range(1, 11):
        assert gen_cantor_geodesic(levels).elements == \
            oracles.cantor_by_digit_filter(levels)


@pytest.mark.parametrize("group,extent,cap,truncated", [
    (Z, 300, 512, True),
    (Z, 300, 4096, False),
    (LatticeGroup(2), 3, 40, True),
    (LatticeGroup(2), 3, 4096, False),
    (XorGroup(5), 5, 10, True),
    (XorGroup(5), 5, 4096, False),
    (FreeGroup(2), 2, 50, True),
    (FreeGroup(2), 2, 4096, False),
], ids=lambda v: getattr(v, "spec", str(v)))
def test_quotient_pool_matches_pairwise_quotients(group, extent, cap, truncated):
    elements = sorted(group.window_elements(extent), key=group.sort_key)
    full = sorted({group.mul(y, group.inv(x))
                   for x in elements for y in elements},
                  key=lambda g: (group.norm(g), group.sort_key(g)))
    assert (len(full) > cap) == truncated
    assert group.quotient_pool(elements, cap) == full[:cap]


def test_detect_pwip_recovers_generated_set():
    sample = gen_pwip(Z, (10, 100, 1000), (1, 2, 3))
    witness = detect_pwip(sample, 3)
    assert witness is not None
    assert witness.validate(sample.elements)
    values = {v for _, v in witness.products}
    assert values <= sample.elements


def test_detect_pwip_depth2_triviality():
    rng = random.Random(13)
    for _ in range(100):
        elems = frozenset(rng.sample(range(-10**6, 10**6), rng.randint(3, 12)))
        witness = detect_pwip(FiniteSample(Z, elems), 2)
        assert witness is not None
        assert witness.validate(elems)


def test_detect_pwip_too_small():
    assert detect_pwip(FiniteSample(Z, frozenset({0})), 2) is None
    assert detect_pwip(FiniteSample(Z, frozenset({0, 5})), 2) is None
    with pytest.raises(GroupError):
        detect_pwip(FiniteSample(Z, frozenset({0})), 0)


def test_detect_pwip_room_check_builds_no_power_of_two():
    # 2^depth - 1 distinct products cannot fit 11 elements; the check must
    # not build the 10^8-bit integer 2^depth to say so
    window = FiniteSample(Z, frozenset(range(-5, 6)), 5)
    tracemalloc.start()
    try:
        assert detect_pwip(window, 10**8) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_detect_pwip_depth_monotone():
    rng = random.Random(17)
    for _ in range(20):
        elems = frozenset(rng.sample(range(-200, 200), 15))
        sample = FiniteSample(Z, elems)
        if detect_pwip(sample, 3) is not None:
            assert detect_pwip(sample, 2) is not None


def _random_oracle_instances():
    rng = random.Random(23)
    cases = []
    for _ in range(120):
        n = rng.randint(1, 14)
        cases.append((Z, frozenset(rng.sample(range(-60, 60), n))))
    for _ in range(50):
        n = rng.randint(1, 25)
        cases.append((Z, frozenset(rng.sample(range(-2000, 2000), n))))
    xg = XorGroup(6)
    for _ in range(30):
        n = rng.randint(1, 20)
        cases.append((xg, frozenset(rng.sample(range(64), n))))
    # structured negatives and larger positives
    cases.append((Z, frozenset(2**n for n in range(12))))
    cases.append((Z, frozenset(3**n for n in range(9))))
    cases.append((Z, frozenset(range(40))))
    cases.append((Z, frozenset(rng.sample(range(-10000, 10000), 40))))
    lattice = LatticeGroup(2)
    box = sorted(lattice.window_elements(4))
    for _ in range(30):
        n = rng.randint(1, 16)
        cases.append((lattice, frozenset(rng.sample(box, n))))
    free = FreeGroup(2)
    words = sorted(free.word_ball(3), key=free.sort_key)
    for _ in range(30):
        n = rng.randint(1, 14)
        cases.append((free, frozenset(rng.sample(words, n))))
    return cases


def test_detect_pwip_oracle_equivalence():
    checked = 0
    for group, elems in _random_oracle_instances():
        sample = FiniteSample(group, elems)
        for depth in (1, 2, 3):
            if 2**depth - 1 > len(elems):
                continue
            got = detect_pwip(sample, depth)
            expected = oracles.pwip_exists(group, elems, depth)
            assert (got is not None) == expected, (group.spec, sorted(elems), depth)
            if got is not None:
                assert got.validate(elems)
            checked += 1
    assert checked >= 200


LATTICE, FREE = LatticeGroup(2), FreeGroup(2)
CHAIN_UNIVERSES = {
    "z": (Z, list(range(-12, 13))),
    "z^2": (LATTICE, sorted(LATTICE.window_elements(2))),
    "z2sum": (XorGroup(5), list(range(32))),
    "free": (FREE, sorted(FREE.word_ball(2), key=FREE.sort_key)),
}


# free:2 is the case that tells g.x from x.g: on the abelian families a
# chain step on the wrong side gives the same sets.
@pytest.mark.parametrize("family", sorted(CHAIN_UNIVERSES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_chain_step_matches_brute_force(family, data):
    group, universe = CHAIN_UNIVERSES[family]
    elems = frozenset(data.draw(st.lists(st.sampled_from(universe),
                                         min_size=1, max_size=14,
                                         unique=True)))
    ordered = sorted(elems, key=group.sort_key)
    # generators among the quotients keep the chain nonempty for a while
    quotients = sorted({group.mul(y, group.inv(x))
                        for x in ordered for y in ordered},
                       key=group.sort_key)
    gens = data.draw(st.lists(st.sampled_from(quotients), max_size=4,
                              unique=True))
    cands = ordered
    for j in range(len(gens) + 1):
        prefix = _subset_products(group, gens[:j])
        assert cands == [x for x in ordered
                         if all(group.mul(p, x) in elems for p in prefix)]
        if j < len(gens):
            cands = _chain_step(group, cands, frozenset(cands), gens[j])


@pytest.mark.parametrize("family", sorted(CHAIN_UNIVERSES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_detect_pwip_chain_search_matches_oracle(family, data):
    group, universe = CHAIN_UNIVERSES[family]
    elems = frozenset(data.draw(st.lists(st.sampled_from(universe),
                                         min_size=7, max_size=15,
                                         unique=True)))
    sample = FiniteSample(group, elems)
    got = detect_pwip(sample, 3)
    assert (got is not None) == oracles.pwip_exists(group, elems, 3)
    for witness in (got, detect_pwip(sample, 4)):
        assert witness is None or witness.validate(elems)


# Past stage 1 the three-element cutoff can only fire at depth >= 4.
# 15 points are the fewest that hold a depth-4 witness, and the
# oracle's exhaustive search bounds the draw.  The oracle takes up to
# 0.25 s, so a failure is reported unshrunk: shrinking reruns it on
# every step, for minutes.
@pytest.mark.parametrize("family", sorted(CHAIN_UNIVERSES))
@settings(max_examples=20, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
@given(data=st.data())
def test_detect_pwip_depth4_matches_oracle(family, data):
    group, universe = CHAIN_UNIVERSES[family]
    elems = frozenset(data.draw(st.lists(st.sampled_from(universe),
                                         min_size=15, max_size=16,
                                         unique=True)))
    got = detect_pwip(FiniteSample(group, elems), 4)
    assert (got is not None) == oracles.pwip_exists(group, elems, 4)
    assert got is None or got.validate(elems)


def test_detect_pwip_finds_the_depth4_ip_set():
    sample = gen_ip(Z, (1, 10, 100, 1000))
    assert len(sample) == 15
    assert oracles.pwip_exists(Z, sample.elements, 4)
    witness = detect_pwip(sample, 4)
    assert witness is not None and witness.validate(sample.elements)


@pytest.mark.parametrize("family", sorted(CHAIN_UNIVERSES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_deepest_pwip_is_the_largest_depth_with_a_witness(family, data):
    group, universe = CHAIN_UNIVERSES[family]
    elems = frozenset(data.draw(st.lists(st.sampled_from(universe),
                                         max_size=15, unique=True)))
    sample = FiniteSample(group, elems)
    # a pool of 2 leaves no spare last generator past depth 1
    scale = dataclasses.replace(preset("small"),
                                pool_cap=data.draw(st.sampled_from([2, 64])))
    found = [detect_pwip(sample, d, scale=scale) for d in range(1, 5)]
    depth = sum(w is not None for w in found)
    # success is monotone in depth: the witnesses are the first ``depth``
    assert None not in found[:depth]
    assert deepest_pwip(sample, 4, scale) == \
        (depth, found[depth - 1] if depth else None)
    assert deepest_pwip(sample, 0, scale) == (0, None)


@pytest.mark.parametrize("family", sorted(CHAIN_UNIVERSES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_detect_pwip_is_the_walks_witness_at_its_depth(family, data):
    group, universe = CHAIN_UNIVERSES[family]
    elems = frozenset(data.draw(st.lists(st.sampled_from(universe),
                                         max_size=15, unique=True)))
    sample = FiniteSample(group, elems)
    # caps 1-12 cut the pool short; 4096 holds every quotient, so the
    # walk's verdict is the oracle's
    cap = data.draw(st.one_of(st.integers(1, 12), st.just(4096)))
    scale = dataclasses.replace(preset("small"), pool_cap=cap)
    top = data.draw(st.integers(1, 4))
    depth, witness = deepest_pwip(sample, top, scale)
    if depth:
        assert witness == detect_pwip(sample, depth, scale)
        assert witness.validate(elems)
    if depth < top and 2 ** (depth + 1) - 1 <= len(elems):
        assert detect_pwip(sample, depth + 1, scale) is None
        if len(sample.quotient_pool(cap)) < cap:
            assert not oracles.pwip_exists(group, elems, depth + 1)


@settings(max_examples=60, deadline=None)
@given(elems=st.frozensets(st.integers(-500, 500), min_size=8, max_size=16),
       top=st.integers(3, 4))
def test_walk_stops_short_only_without_a_witness(elems, top):
    # sparse z sets seldom repeat a difference, and a depth-3 witness
    # needs one repeated twice, so the walk mostly stops at depth 2 with
    # every quotient in its pool; the oracle must find no deeper witness
    sample = FiniteSample(Z, elems)
    scale = dataclasses.replace(preset("small"), pool_cap=4096)
    assert len(sample.quotient_pool(4096)) < 4096
    depth, witness = deepest_pwip(sample, top, scale)
    assert witness == detect_pwip(sample, depth, scale)
    assert witness.validate(elems)
    if depth < top:
        assert detect_pwip(sample, depth + 1, scale) is None
        assert not oracles.pwip_exists(Z, elems, depth + 1)


def test_witness_validate_rejects_tampering():
    sample = gen_pwip(Z, (10, 100, 1000), (1, 2, 3))
    witness = detect_pwip(sample, 3)
    assert witness.validate(sample.elements)
    (idx, value), *rest = witness.products
    other = next(x for x in sorted(sample.elements) if x != value)
    g0, g1, g2 = witness.gens
    tampered = [
        dataclasses.replace(witness, products=((idx, other), *rest)),
        dataclasses.replace(witness, products=tuple(rest)),
        dataclasses.replace(witness, gens=(g0, g0, g2)),
        dataclasses.replace(witness, shifts=witness.shifts[:-1]),
    ]
    for bad in tampered:
        assert not bad.validate(sample.elements)
    assert not witness.validate(sample.elements - {value})


def test_witness_validate_rejects_equal_products():
    # P(0) = 1 + 1 and P(1) = 2 + 0 coincide; P(0, 1) = 1 + 2 + 0
    products = (((0,), 2), ((0, 1), 3), ((1,), 2))
    witness = PwipWitness(Z, 2, (1, 2), (1, 0), products)
    assert not witness.validate({2, 3})
    good = PwipWitness(Z, 2, (1, 2), (0, 0), (((0,), 1), ((0, 1), 3), ((1,), 2)))
    assert good.validate({1, 2, 3})


def test_detect_pwip_powers_depth3_negative():
    sample = FiniteSample(Z, frozenset(2**n for n in range(12)))
    assert detect_pwip(sample, 3) is None
    assert oracles.pwip_exists_depth3(Z, sample.elements) is False


def test_witness_json_shape():
    witness = detect_pwip(FiniteSample(Z, frozenset({1, 5, 9, 20})), 2)
    d = witness.to_json_dict()
    assert d["depth"] == "2"
    assert len(d["generators"]) == 2
    assert len(d["shifts"]) == 2
    assert len(d["products"]) == 3
    assert all(set(p) == {"indices", "value"} for p in d["products"])


def _dyadic_chain(k, w):
    sets = []
    for n in range(k + 1):
        bound = w - (2**n - 1)
        sets.append(frozenset(x for x in range(-bound, bound + 1)
                              if x % 2**n == 0))
    gens = tuple(2**n for n in range(k))
    reps = (0,) * k
    return NestedChain(Z, tuple(sets), gens, reps)


def test_nested_chain_check_and_extract():
    chain = _dyadic_chain(4, 64)
    chain.check()
    out = extract_pwip_from_chain(chain)
    assert out.elements == frozenset(range(16))
    assert out.elements <= chain.sets[0]
    assert detect_pwip(out, 3) is not None


def test_nested_chain_violations():
    chain = _dyadic_chain(3, 32)
    bad = NestedChain(Z, chain.sets, chain.gens, (1,) + chain.reps[1:])
    with pytest.raises(GroupError):
        bad.check()
    bad2 = NestedChain(Z, chain.sets, (3, 2, 4), chain.reps)
    with pytest.raises(GroupError):
        bad2.check()


def test_extract_single_level():
    sets = (frozenset(range(-10, 11)), frozenset(range(-5, 6)))
    chain = NestedChain(Z, sets, (2,), (3,))
    out = extract_pwip_from_chain(chain)
    assert out.elements == frozenset({3, 5})


def test_cantor_extent():
    for n in range(1, 8):
        top = max(gen_cantor_geodesic(n).elements)
        assert cantor_extent(n) == top + 1 + CANTOR_WINDOW_MARGIN
        assert gen_cantor_geodesic(n).window == cantor_extent(n)
        spec = SetSpec.make("z", "cantor", levels=n)
        assert spec.resolve().window == cantor_extent(n)
    for bad in (0, 13):
        with pytest.raises(GroupError):
            cantor_extent(bad)


@contextlib.contextmanager
def time_limit(seconds):
    """Fail with TimeoutError instead of hanging past ``seconds``."""
    def on_alarm(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# Searches that timed out or missed a witness while the pool kept the most
# negative quotients instead of the shortest ones.
def test_small_pool_finds_the_ip_witness():
    sample = SetSpec.make("z", "ip", generators=[
        "537", "-3919", "79", "823", "15"]).resolve()
    with time_limit(10):
        witness = detect_pwip(sample, 3, preset("small"))
    assert witness is not None and witness.validate(sample.elements)
    assert oracles.pwip_exists(Z, sample.elements, 3)


CANTOR_20000 = SetSpec.make("z", "cantor", window_extent=20000, levels="auto")


@pytest.mark.parametrize("spec, budget, depth", [
    (SetSpec.make("z", "window", window_extent=600), "medium", 3),
    (SetSpec.make("z", "periodic", window_extent=550, modulus=3,
                  residues=["0", "1"]), "medium", 3),
    (CANTOR_20000, "large", 4),
], ids=["window-600", "periodic-3-550", "cantor-20000"])
def test_deep_search_past_the_pool_cap(spec, budget, depth):
    sample = spec.resolve()
    with time_limit(10):
        witness = detect_pwip(sample, depth, preset(budget))
    assert witness is not None and witness.validate(sample.elements)


@pytest.mark.parametrize("spec, budget, depth", [
    (SetSpec.make("z", "window", window_extent=1000), "medium", "3"),
    (CANTOR_20000, "large", "4"),
], ids=["window-1000", "cantor-20000"])
def test_classify_finishes(spec, budget, depth):
    sample = spec.resolve()
    with time_limit(10):
        report = classify(sample, preset(budget))
    assert report["pwip"]["max_depth"] == depth


def test_pwip_search_draws_t_from_the_pool():
    # cands outnumber the pool, so most t fail the pool filter
    sample = FiniteSample(Z, frozenset(range(-40, 41)))
    scale = dataclasses.replace(preset("small"), pool_cap=5)
    assert sample.quotient_pool(5) == [0, -1, 1, -2, 2]
    witness = detect_pwip(sample, 3, scale)
    assert witness.gens == (1, 2, 0)
    assert witness.validate(sample.elements)


def _scan_only(group, cands, pool):
    """``_chain_sets`` without its pair table: one scan per call."""
    return functools.partial(_chain_step, group, cands, frozenset(cands))


def _counting_chain_sets(nodes):
    """A ``_chain_sets`` that appends [len(cands), calls] per node."""
    build = structures._chain_sets

    def counted(group, cands, pool):
        node = [len(cands), 0]
        nodes.append(node)
        chain_set = build(group, cands, pool)

        def call(g):
            node[1] += 1
            return chain_set(g)
        return call
    return counted


@pytest.mark.parametrize("family", sorted(CHAIN_UNIVERSES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_chain_sets_match_the_chain_step(family, data):
    group, universe = CHAIN_UNIVERSES[family]
    cands = sorted(data.draw(st.lists(st.sampled_from(universe), min_size=1,
                                      max_size=15, unique=True)),
                   key=group.sort_key)
    quotients = sorted({group.mul(y, group.inv(x))
                        for x in cands for y in cands}, key=group.sort_key)
    pool = data.draw(st.lists(st.sampled_from(quotients + universe),
                              min_size=1, max_size=20, unique=True))
    chain_set = structures._chain_sets(group, cands, frozenset(pool))
    members = frozenset(cands)
    # the first len(cands) calls scan, the rest read the table; the last
    # pass over the pool falls wholly after the switch
    for g in pool * (len(cands) + 1):
        assert chain_set(g) == _chain_step(group, cands, members, g)


@pytest.mark.parametrize("family", sorted(CHAIN_UNIVERSES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_chain_table_matches_the_scans(family, data):
    group, universe = CHAIN_UNIVERSES[family]
    elems = frozenset(data.draw(st.lists(st.sampled_from(universe),
                                         min_size=3, max_size=15,
                                         unique=True)))
    scale = dataclasses.replace(preset("small"),
                                pool_cap=data.draw(st.sampled_from([8, 64])))
    depth = data.draw(st.integers(2, 4))
    got = detect_pwip(FiniteSample(group, elems), depth, scale)
    with mock.patch.object(structures, "_chain_sets", _scan_only):
        scanned = detect_pwip(FiniteSample(group, elems), depth, scale)
    assert got == scanned


def test_chain_table_then_a_witness():
    # the top node runs past its 200 scans, builds the table, and the
    # search then finds a witness through it
    sample = FiniteSample(Z, frozenset(random.Random(101).sample(
        range(20001), 200)))
    nodes = []
    with mock.patch.object(structures, "_chain_sets",
                           _counting_chain_sets(nodes)):
        got = detect_pwip(sample, 3, preset("medium"))
    assert nodes[0][0] == 200 and nodes[0][1] > 200
    assert got is not None and got.validate(sample.elements)
    with mock.patch.object(structures, "_chain_sets", _scan_only):
        assert detect_pwip(sample, 3, preset("medium")) == got


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_last_stage_takes_no_chain_step(depth):
    sample = FiniteSample(Z, frozenset(range(0, 40, 3)) | {1, 5, 11})
    nodes, searched = [], []
    products = structures._subset_products

    def counted_products(group, gens):
        # once per picking node, over the generators picked above it
        searched.append(len(gens))
        return products(group, gens)

    # validate builds the found witness's products as well
    with mock.patch.object(structures, "_chain_sets",
                           _counting_chain_sets(nodes)), \
            mock.patch.object(structures, "_subset_products",
                              counted_products), \
            mock.patch.object(PwipWitness, "validate",
                              lambda self, target: True):
        assert detect_pwip(sample, depth, preset("medium")) is not None
    if depth < 3:
        assert nodes == [] and searched == [0] * (depth - 1)
    else:
        # the top node takes chain steps; the stage-2 nodes, which pick
        # last, search without a chain set
        assert len(nodes) == 1 and nodes[0][0] == len(sample)
        assert nodes[0][1] > 0 and searched[0] == 0 and 1 in searched


def test_classify_walks_the_chain_once():
    # at large, classify asks for depth 4 and this window has it; one
    # walk builds the top node's chain sets once, where a search per
    # depth built them at depth 3 and again at depth 4
    sample = SetSpec.make("z", "window", window_extent=300).resolve()
    nodes = []
    with mock.patch.object(structures, "_chain_sets",
                           _counting_chain_sets(nodes)):
        report = classify(sample, preset("large"))
    assert report["pwip"]["max_depth"] == "4"
    assert [size for size, _ in nodes].count(len(sample)) == 1


def _distinct_quotients_z(rng, n, bound):
    """n integers of [-bound, bound] whose differences x - y, x != y,
    are all distinct."""
    out, diffs = [], set()
    while len(out) < n:
        x = rng.randint(-bound, bound)
        new = {d for y in out for d in (x - y, y - x)}
        if x not in out and len(new) == 2 * len(out) and not new & diffs:
            out.append(x)
            diffs |= new
    return out


def test_chain_scans_per_node_are_bounded():
    sample = FiniteSample(Z, frozenset(_distinct_quotients_z(
        random.Random(5), 60, 9 * 10**5)))
    scans = {}
    step = structures._chain_step

    def counted(group, cands, members, g):
        # members is built once per node; holding it keeps its id unique
        scans.setdefault(id(members), [members, len(cands), 0])[2] += 1
        return step(group, cands, members, g)

    with mock.patch.object(structures, "_chain_step", counted):
        assert detect_pwip(sample, 4, preset("large")) is None
    assert scans and all(n <= size for _, size, n in scans.values())
    # the top node runs out its scans and switches to the table
    assert max(n for _, _, n in scans.values()) == len(sample)


def test_classify_and_density_build_one_pool_per_sample(monkeypatch):
    calls = []
    build = IntGroup.quotient_pool

    def counted(self, elements, cap):
        calls.append(cap)
        return build(self, elements, cap)

    monkeypatch.setattr(IntGroup, "quotient_pool", counted)
    sample = SetSpec.make("z", "window", window_extent=100).resolve()
    assert classify(sample, preset("medium"))["pwip"]["max_depth"] == "3"
    assert calls == [512]
    calls.clear()
    recipe = SetSpec.make("z", "powers", base=2)
    report = density_pwip_experiment(recipe, 3, window_extent=600,
                                     scale=preset("small"))
    assert report["achieved_depth"] == "2"
    assert calls == [64]
