"""Search budgets: radius bounds, pool caps, witness depth.

A Scale fixes everything a budgeted verdict depends on, so identical
inputs always produce identical reports.  The F-family is the word
balls of radius 0..f_max (radius 0 is the identity-only radius), and
`cellular` and `prec` search their found radius up to f_max too.  The
enlargements of F = wordball(r) are wordball(t).F = wordball(r + t) for
t = 1, 3, 9, ... (a geometric ladder), built one at a time and only
until one refutes F.  Sets whose companion structure lives on lacunary
scales need enlargements well beyond F, and the ladder is cofinal at
window scale while staying small.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Scale:
    name: str
    f_max: int
    ladder: tuple            # thickening radii t of the enlargements
    pool_cap: int
    max_depth: int

    def margin_for(self, group):
        return self.f_max + group.clamp_ladder(self.ladder)[-1]


_PRESETS = {
    "small": Scale("small", 3, (1, 3, 9, 27), 64, 2),
    "medium": Scale("medium", 5, (1, 3, 9, 27, 81), 512, 3),
    "large": Scale("large", 8, (1, 3, 9, 27, 81, 243), 4096, 4),
}


def preset(name):
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown budget preset: {name!r}") from None
