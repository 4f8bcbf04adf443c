"""Upper-density profiles for integer sets and the density-to-structure
experiment linking positive density to shifted-product witnesses.

No finite procedure computes a limsup; the reported estimate is the
maximum ratio over the tail half of the sampled range, with the full
profile exposed so the window dependence stays visible.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from . import structures
from .groups import FiniteSample, GroupError, IntGroup


@dataclass(frozen=True)
class DensityProfile:
    entries: tuple           # (n, count, ratio)
    n_max: int
    estimate: float

    def to_json_dict(self):
        return {
            "kind": "density",
            "n_max": str(self.n_max),
            "estimate": repr(self.estimate),
            "profile": [
                {"n": str(n), "count": str(c), "ratio": repr(r)}
                for n, c, r in self.entries
            ],
        }


def _periodic_count(q, residues, n):
    """|{x in [-n, n] : x mod q in residues}| in closed form: x = r + kq
    lies in [-n, n] for k from -((n + r) // q) to (n - r) // q."""
    return sum((n - r) // q + (n + r) // q + 1 for r in residues)


def _require_z(recipe):
    if not isinstance(recipe.group(), IntGroup):
        raise GroupError("density profiles require the group z")


def _counter_for(recipe, n_max):
    if recipe.kind == "periodic":
        q, residues = recipe.periodic()
        return lambda n: _periodic_count(q, residues, n)
    arr = recipe.resolve(IntGroup(), n_max).interior(0)
    return lambda n: bisect_right(arr, n) - bisect_left(arr, -n)


def upper_density_profile(recipe, n_max, step=None):
    """Exact membership counts on nested symmetric intervals; the
    estimate is the tail-half maximum of count/(2n+1).  The radii are
    the multiples of ``step`` below n_max, then n_max itself."""
    if not 1 <= n_max <= 10**7:
        raise GroupError("n_max must be in 1..10^7")
    if step is None:
        step = max(n_max // 100, 1)
    if step < 1:
        raise GroupError("step must be >= 1")
    _require_z(recipe)
    count = _counter_for(recipe, n_max)
    entries = []
    for n in (*range(step, n_max, step), n_max):
        c = count(n)
        entries.append((n, c, c / (2 * n + 1)))
    tail = [r for n, _, r in entries if n >= n_max / 2]
    return DensityProfile(tuple(entries), n_max, max(tail))


def density_pwip_experiment(recipe, depth, window_extent=None, scale=None):
    """Detect shifted-product structure in the windowed set and pair the
    outcome with the density estimate.  The window extent defaults to
    the recipe's own window, else 100, and the scale to the large
    preset."""
    if not 1 <= depth <= 4:
        raise GroupError("experiment depth must be in 1..4")
    if window_extent is None:
        window_extent = recipe.window_extent
    if window_extent is None:
        window_extent = 100
    group = IntGroup()
    window = group.window(window_extent)
    _require_z(recipe)
    sample = recipe.resolve(group, window)
    clipped = FiniteSample.from_ordered(group, sample.interior(0), window,
                                        recipe)
    profile = upper_density_profile(recipe, max(window_extent, 1000))
    achieved, witness = structures.deepest_pwip(clipped, depth, scale)
    return {
        "kind": "density-pwip",
        "window": str(window_extent),
        "sample_size": str(len(clipped)),
        "density_estimate": repr(profile.estimate),
        "requested_depth": str(depth),
        "achieved_depth": str(achieved),
        "witness": witness.to_json_dict() if witness else None,
        "verdict": "FOUND" if witness else "NOT_FOUND",
    }
