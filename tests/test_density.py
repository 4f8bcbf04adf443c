import time

import pytest

from coarsesets.density import (density_pwip_experiment,
                                upper_density_profile)
from coarsesets.groups import GroupError
from coarsesets.recipes import SetSpec


def periodic(q, residues, **kw):
    return SetSpec.make("z", "periodic", modulus=q,
                        residues=[str(r) for r in residues], **kw)


def test_multiples_of_three():
    start = time.monotonic()
    profile = upper_density_profile(periodic(3, [0]), 100000)
    elapsed = time.monotonic() - start
    assert abs(profile.estimate - 1 / 3) < 1e-3
    assert elapsed < 1.0


def test_periodic_counts_exact():
    cases = [(5, [1, 3], 1000, 100)]
    for q in range(1, 13):
        for residues in ([0], [q - 1], list(range(0, q, 2)), list(range(q))):
            cases.append((q, residues, 60, 1))
    for q, residues, n_max, step in cases:
        profile = upper_density_profile(periodic(q, residues), n_max,
                                        step=step)
        for n, count, ratio in profile.entries:
            explicit = sum(1 for x in range(-n, n + 1) if x % q in residues)
            assert count == explicit, (q, residues, n)
            assert ratio == count / (2 * n + 1)


def test_periodic_oscillation_bound():
    q, residues = 7, [0, 2, 4]
    profile = upper_density_profile(periodic(q, residues), 20000)
    target = len(residues) / q
    for n, _, ratio in profile.entries:
        assert abs(ratio - target) <= q / (2 * n + 1)


def test_empty_set_density():
    spec = SetSpec.make("z", "explicit", elements=[])
    profile = upper_density_profile(spec, 1000)
    assert profile.estimate == 0.0
    assert all(c == 0 for _, c, _ in profile.entries)


def test_squares_density_vanishes():
    spec = SetSpec.make("z", "explicit",
                        elements=[str(n * n) for n in range(101)])
    profile = upper_density_profile(spec, 10000)
    assert profile.estimate <= 2e-2


def test_density_union_bound():
    a = upper_density_profile(periodic(6, [0]), 5000, step=500)
    b = upper_density_profile(periodic(6, [1]), 5000, step=500)
    u = upper_density_profile(periodic(6, [0, 1]), 5000, step=500)
    for (n, _, ra), (_, _, rb), (_, _, ru) in zip(a.entries, b.entries, u.entries):
        assert ru <= ra + rb + 1e-12


def test_density_bad_inputs():
    with pytest.raises(GroupError):
        upper_density_profile(periodic(3, [0]), 0)
    with pytest.raises(GroupError):
        upper_density_profile(SetSpec.make("z^2", "explicit", elements=[]), 100)
    for step in (0, -1):
        with pytest.raises(GroupError, match="step"):
            upper_density_profile(periodic(3, [0]), 100, step=step)


def test_step_above_n_max_gives_n_max_alone():
    profile = upper_density_profile(periodic(3, [0]), 10, step=20)
    assert profile.entries == ((10, 7, 7 / 21),)
    assert profile.estimate == 7 / 21


def test_density_pwip_on_evens():
    report = density_pwip_experiment(periodic(2, [0]), 3)
    assert report["verdict"] == "FOUND"
    assert report["achieved_depth"] == "3"
    assert float(report["density_estimate"]) > 0.45


def test_density_pwip_every_small_period():
    for q in range(1, 13):
        for residues in ([0], [q - 1], list(range(0, q, 2))):
            report = density_pwip_experiment(periodic(q, residues), 3)
            assert report["verdict"] == "FOUND", (q, residues)
            assert report["achieved_depth"] == "3", (q, residues)


def test_density_pwip_empty():
    report = density_pwip_experiment(
        SetSpec.make("z", "explicit", elements=[]), 3)
    assert report["verdict"] == "NOT_FOUND"
    assert float(report["density_estimate"]) == 0.0


def test_density_pwip_powers():
    report = density_pwip_experiment(
        SetSpec.make("z", "powers", base=2), 3, window_extent=256)
    assert float(report["density_estimate"]) < 0.02
    assert report["verdict"] in ("FOUND", "NOT_FOUND")
    assert report["achieved_depth"] in ("0", "1", "2")
