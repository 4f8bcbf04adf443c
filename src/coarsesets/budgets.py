"""Search budgets: radius families, pool caps, witness depth.

A Scale fixes everything a budgeted verdict depends on, so identical
inputs always produce identical reports.  The F-family is the word
balls of radius 0..f_max (radius 0 is the identity-only radius).  The
H-candidates for F = wordball(r) are wordball(t).F = wordball(r + t) for
t = 1, 3, 9, ... (a geometric ladder): sets whose companion structure
lives on lacunary scales need enlargements well beyond F, and the ladder
is cofinal at window scale while staying small.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import geometry
from .groups import word_ball_elements


@dataclass(frozen=True)
class Scale:
    name: str
    f_max: int
    ladder: tuple            # thickening radii for H-candidates
    pool_cap: int
    kprime_max: int
    max_depth: int

    def margin_for(self, group):
        return self.f_max + group.clamp_ladder(self.ladder)[-1]

    def f_family(self, group):
        return [geometry.word_radius(group, r) for r in range(0, self.f_max + 1)]

    def h_candidates(self, group, r):
        return [geometry.Radius(group, word_ball_elements(group, r + t),
                                f"wordball:{r}+wordball:{t}")
                for t in group.clamp_ladder(self.ladder)]


_PRESETS = {
    "small": Scale("small", 3, (1, 3, 9, 27), 64, 3, 2),
    "medium": Scale("medium", 5, (1, 3, 9, 27, 81), 512, 5, 3),
    "large": Scale("large", 8, (1, 3, 9, 27, 81, 243), 4096, 8, 4),
}


def preset(name):
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown budget preset: {name!r}") from None
