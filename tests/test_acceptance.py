"""Acceptance gate: twelve checks, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import time

from coarsesets.budgets import preset
from coarsesets.cli import run
from coarsesets.classifiers import isolated_balls_verdict
from coarsesets.density import density_pwip_experiment, upper_density_profile
from coarsesets.geometry import Radius, ball, cellularity_probe, chain_partition, restricted_ball
from coarsesets.groups import (FiniteSample, FreeGroup, IntGroup, LatticeGroup,
                               XorGroup, reduce_word)
from coarsesets.recipes import SetSpec
from coarsesets.structures import (NestedChain, detect_pwip,
                                   extract_pwip_from_chain,
                                   gen_cantor_geodesic, gen_ip, gen_pwip)

import oracles

Z = IntGroup()
MEDIUM = preset("medium")


def report(num, description):
    print(f"[ACCEPTANCE {num:02d}] PASS - {description}")


def random_element(group, rng):
    if isinstance(group, IntGroup):
        return rng.randint(-10**9, 10**9)
    if isinstance(group, LatticeGroup):
        return tuple(rng.randint(-10**6, 10**6) for _ in range(group.d))
    if isinstance(group, XorGroup):
        return rng.getrandbits(16)
    word = "".join(rng.choice("abAB") for _ in range(rng.randint(0, 8)))
    return reduce_word(word)


def test_01_group_axioms():
    rng = random.Random(101)
    for group in (Z, LatticeGroup(3), XorGroup(8), FreeGroup(2)):
        e = group.identity()
        for _ in range(10000):
            a = random_element(group, rng)
            b = random_element(group, rng)
            c = random_element(group, rng)
            assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
            assert group.mul(a, e) == a and group.mul(e, a) == a
            assert group.mul(a, group.inv(a)) == e
    for _ in range(2000):
        w = "".join(rng.choice("abAB") for _ in range(12))
        assert reduce_word(reduce_word(w)) == reduce_word(w)
    report(1, "group axioms hold on 10^4 random triples per family; "
              "free reduction idempotent")


def test_02_ball_law():
    rng = random.Random(102)
    for _ in range(10000):
        g = rng.randint(-10**6, 10**6)
        F = frozenset(rng.randint(-20, 20) for _ in range(rng.randint(0, 8)))
        b = ball(Z, g, Radius(Z, F))
        assert g in b and len(b) <= len(F) + 1
        Y = frozenset(rng.randint(g - 30, g + 30) for _ in range(10))
        got = restricted_ball(FiniteSample(Z, Y), g, Radius(Z, F))
        assert got == oracles.brute_ball(Z, g, F) & Y
    report(2, "|B(g,F)| <= |F|+1, g in B(g,F), and B_Y = B ∩ Y on 10^4 draws")


def test_03_chain_union_find():
    rng = random.Random(103)
    for i in range(100):
        n = rng.randint(10, 2000) if i < 95 else rng.randint(5000, 10000)
        elems = frozenset(rng.sample(range(-4 * n, 4 * n), n))
        kset = frozenset(rng.sample(range(1, 8), rng.randint(1, 3)))
        expected = {frozenset(c)
                    for c in oracles.union_find_components(Z, elems, kset)}
        got = {frozenset(c) for c in
               chain_partition(FiniteSample(Z, elems), Radius(Z, kset))}
        assert got == expected
    report(3, "chain components equal union-find components on 100 samples "
              "up to 10^4 elements")


def test_04_ip_pwip_generators():
    assert gen_ip(Z, (1, 2, 4, 8, 16)).elements == frozenset(range(1, 32))
    assert gen_pwip(Z, (10, 100, 1000), (1, 2, 3)).elements == \
        frozenset({11, 102, 112, 1003, 1013, 1103, 1113})
    rng = random.Random(104)
    nonzero = [x for x in range(-500, 501) if x != 0]
    for _ in range(50):
        k = rng.randint(1, 7)
        gens = tuple(rng.sample(nonzero, k))
        assert gen_pwip(Z, gens, (0,) * k).elements == gen_ip(Z, gens).elements
    report(4, "gen_ip(1,2,4,8,16) = {1..31}; identity-shift pwip equals ip "
              "on 50 tuples; 7-element shifted example exact")


def test_05_detector_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(105)
    cases = []
    for _ in range(160):
        n = rng.randint(1, 16)
        cases.append((Z, frozenset(rng.sample(range(-80, 80), n))))
    for _ in range(40):
        n = rng.randint(17, 40)
        cases.append((Z, frozenset(rng.sample(range(-3000, 3000), n))))
    xg = XorGroup(6)
    for _ in range(20):
        cases.append((xg, frozenset(rng.sample(range(64), rng.randint(3, 30)))))
    cases.append((Z, frozenset(2**n for n in range(12))))
    cases.append((Z, frozenset(5**n for n in range(8))))
    checked = 0
    for group, elems in cases:
        sample = FiniteSample(group, elems)
        for depth in (1, 2, 3):
            got = detect_pwip(sample, depth)
            if 2**depth - 1 > len(elems):
                assert got is None
                continue
            assert got is None or got.validate(elems)
            assert (got is not None) == oracles.pwip_exists(group, elems, depth)
            checked += 1
    elapsed = time.monotonic() - start
    assert checked >= 200
    assert elapsed < 300
    report(5, f"detector sound + oracle-equivalent on {checked} "
              f"(sample, depth) instances in {elapsed:.1f}s")


def test_06_depth2_triviality():
    rng = random.Random(106)
    for _ in range(100):
        elems = frozenset(rng.sample(range(-10**8, 10**8), rng.randint(3, 20)))
        witness = detect_pwip(FiniteSample(Z, elems), 2)
        assert witness is not None and witness.validate(elems)
        # the algebraic construction: any 3 distinct x, y, z admit a witness
        x, y, z = sorted(elems)[:3]
        g0 = z - y
        assert g0 != 0
    report(6, "every |A| >= 3 admits a depth-2 witness (100 random samples)")


def test_07_cantor_geodesic_behavior():
    sample = gen_cantor_geodesic(5)
    cell = cellularity_probe(sample, Radius(Z, frozenset({-1, 1})), MEDIUM)
    assert cell.verdict == "CELLULAR_AT_SCALE"
    iso = isolated_balls_verdict(sample, MEDIUM)
    assert iso.verdict == "NO_ISOLATED_BALLS_AT_SCALE"
    small = gen_cantor_geodesic(4)
    margin = MEDIUM.margin_for(Z)
    interior = [y for y in small.ordered
                if oracles.window_interior(Z, small.window, y, margin)]
    direct = oracles.isolated_balls_direct(
        Z, small.elements, interior, *oracles.word_ball_families(Z, MEDIUM))
    assert direct == "NO_ISOLATED_BALLS_AT_SCALE"
    report(7, "Cantor-geodesic set is cellular at wordball:1 and has no "
              "isolated balls at medium scale (oracle-confirmed)")


def test_08_isolated_balls_oracle():
    rng = random.Random(108)
    count = 0
    for _ in range(50):
        n = rng.randint(3, 80)
        spread = rng.choice([60, 300, 1500])
        elems = frozenset(rng.sample(range(-spread, spread), min(n, 2 * spread)))
        extent = max(spread + 200, 256)
        sample = FiniteSample(Z, elems, Z.window(extent))
        rep = isolated_balls_verdict(sample, MEDIUM)
        margin = MEDIUM.margin_for(Z)
        interior = [y for y in sample.ordered
                    if oracles.window_interior(Z, extent, y, margin)]
        direct = oracles.isolated_balls_direct(
            Z, elems, interior, *oracles.word_ball_families(Z, MEDIUM))
        assert rep.verdict == direct
        count += 1
    assert count == 50
    report(8, "isolated-balls verdict matches the direct double-quantifier "
              "oracle on 50 random samples")


BATTERY = [
    ("powers-of-2", SetSpec.make("z", "powers", base=2, window_extent=512)),
    ("powers-of-4", SetSpec.make("z", "powers", base=4, window_extent=512)),
    ("w2-sample", SetSpec.make("z2sum:8", "wn", support=2)),
    ("cantor-auto", SetSpec.make("z", "cantor", levels="auto", window_extent=500)),
    ("z-window", SetSpec.make("z", "window", window_extent=128)),
    ("evens", SetSpec.make("z", "periodic", modulus=2, residues=("0",),
                           window_extent=256)),
    ("pwip-output", SetSpec.make("z", "pwip", generators=("1", "300", "90000"),
                                 shifts=("0", "0", "0"))),
]


def test_09_class_hierarchy():
    from coarsesets.classifiers import classify
    verdicts = {}
    for name, spec in BATTERY:
        rep = classify(spec.resolve(), MEDIUM)
        verdicts[name] = (
            rep["thin"]["degree"] == "1",
            rep["sparse"]["verdict"] == "WITNESS_FOUND",
            rep["isolated_balls"]["verdict"] == "HAS_ISOLATED_BALLS",
        )
    for name, (thin1, sparse, scattered) in verdicts.items():
        if thin1:
            assert sparse, name
        if sparse:
            assert scattered, name
    assert verdicts["z-window"] == (False, False, False)
    assert verdicts["powers-of-2"] == (True, True, True)
    assert verdicts["cantor-auto"] == (False, False, False)
    assert verdicts["w2-sample"][2] is True
    report(9, "thin=>sparse=>scattered ordering holds across the 7-member "
              "battery; the full interval fails all three")


def test_10_density():
    start = time.monotonic()
    profile = upper_density_profile(
        SetSpec.make("z", "periodic", modulus=3, residues=("0",)), 100000)
    assert abs(profile.estimate - 1 / 3) < 1e-3
    assert time.monotonic() - start < 1.0
    rng = random.Random(110)
    for q in range(1, 13):
        choices = {(0,), (q - 1,),
                   tuple(sorted(rng.sample(range(q), max(1, q // 2))))}
        for residues in choices:
            spec = SetSpec.make("z", "periodic", modulus=q,
                                residues=tuple(str(r) for r in residues))
            rep = density_pwip_experiment(spec, 3)
            assert rep["verdict"] == "FOUND", (q, residues)
            assert rep["achieved_depth"] == "3", (q, residues)
    report(10, "periodic densities reproduce r/q within 1e-3 in <1s; "
               "depth-3 witnesses found for every period q <= 12")


def test_11_extraction():
    k, w = 4, 64
    sets = []
    for n in range(k + 1):
        bound = w - (2**n - 1)
        sets.append(frozenset(x for x in range(-bound, bound + 1)
                              if x % 2**n == 0))
    chain = NestedChain(Z, tuple(sets), tuple(2**n for n in range(k)),
                        (0,) * k)
    out = extract_pwip_from_chain(chain)
    assert out.elements == frozenset(range(2**k))
    assert out.elements <= chain.sets[0]
    witness = detect_pwip(out, 3)
    assert witness is not None and witness.validate(out.elements)
    report(11, "dyadic nested-chain extraction yields {0..2^k-1}, inside A_0, "
               "with a depth-3 witness")


def test_12_determinism(capsys):
    import os
    import tempfile

    for name, spec in BATTERY:
        outputs = []
        for _ in range(2):
            with tempfile.NamedTemporaryFile("w", suffix=".json",
                                             delete=False) as fh:
                json.dump(spec.to_json_dict(), fh)
                path = fh.name
            code = run(["classify", "--set", path, "--budget", "medium"])
            captured = capsys.readouterr()
            outputs.append(captured.out)
            os.unlink(path)
            assert code == 0
        assert outputs[0] == outputs[1], name
        assert json.loads(outputs[0])["schema"] == "coarse-sets/1"
    with capsys.disabled():
        report(12, "classify emits byte-identical JSON across repeated runs "
                   "on the full battery")
