"""Set recipes: window-aware descriptions of the samples the CLI and the
classifiers operate on.

A recipe resolves against a window, so stability checks can regenerate
the same set in an enlarged window.  Kinds whose infinite object is
window-independent (``explicit``, finite ``ip``/``pwip`` generator
lists) resolve to the same set in every window; the window-scaled kinds
(``periodic``, ``powers``, ``wn``, ``cantor``, ``window``, ``ip`` with a
rule) grow with it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import structures
from .groups import (FiniteSample, GroupError, IntGroup, XorGroup,
                     enumerate_window, group_from_spec)

KINDS = ("explicit", "ip", "pwip", "wn", "cantor", "periodic", "powers", "window")

# kind -> (group class, its name in the refusal) for the kinds of one family
_FAMILY_KINDS = {
    "periodic": (IntGroup, "the group z"),
    "powers": (IntGroup, "the group z"),
    "cantor": (IntGroup, "the group z"),
    "wn": (XorGroup, "a z2sum group"),
}


def integer(value, name):
    """``value`` as an int: a JSON integer (not a bool) or a string of one."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise GroupError(f"{name} must be an integer")


@dataclass
class SetSpec:
    group_spec: str
    kind: str
    params: dict
    window_extent: int | None = None

    @staticmethod
    def make(group_spec, kind, window_extent=None, **params):
        if kind not in KINDS:
            raise GroupError(f"unknown set kind: {kind!r}")
        return SetSpec(group_spec, kind, params, window_extent)

    def strings(self, key):
        """The list parameter ``key`` (empty when absent), whose entries
        must all be strings."""
        value = self.params.get(key, ())
        if not (isinstance(value, (list, tuple))
                and all(isinstance(t, str) for t in value)):
            raise GroupError(f"recipe {key!r} must be a list of strings")
        return value

    def integer(self, key, default=None):
        """The integer parameter ``key``; ``default`` when absent."""
        return integer(self.params.get(key, default), f"recipe {key!r}")

    def base(self, default):
        """The ``base`` parameter of a powers set or ip rule, at least 2."""
        b = self.integer("base", default)
        if b < 2:
            raise GroupError("base must be >= 2")
        return b

    def periodic(self):
        """``(q, residues)`` of a periodic recipe: the modulus and the set
        of residues reduced mod q."""
        q = self.integer("modulus")
        if q < 1:
            raise GroupError("modulus must be >= 1")
        return q, {integer(r, "recipe 'residues' entry") % q
                   for r in self.strings("residues")}

    def group(self):
        return group_from_spec(self.group_spec)

    def default_window(self, group):
        if self.window_extent is not None:
            return group.window(self.window_extent)
        if self.kind == "cantor" and self.params.get("levels") != "auto":
            return structures.cantor_extent(self.integer("levels"))
        return group.default_extent

    def resolve(self, group=None, window=None):
        group = group or self.group()
        if window is None:
            window = self.default_window(group)
        if self.kind == "window":
            return enumerate_window(group, window, self)
        elems = self._elements(group, window)
        return FiniteSample(group, frozenset(elems), window, self)

    def _elements(self, group, window):
        kind = self.kind
        if kind in _FAMILY_KINDS:
            family, name = _FAMILY_KINDS[kind]
            if not isinstance(group, family):
                raise GroupError(f"{kind} recipes require {name}")
        if kind == "explicit":
            return {group.parse(t) for t in self.strings("elements")}
        if kind == "periodic":
            q, residues = self.periodic()
            return {x for x in range(-window, window + 1) if x % q in residues}
        if kind == "powers":
            b = self.base(None)
            out = set()
            v = 1
            while v <= window:
                out.add(v)
                v *= b
            return out
        if kind == "ip":
            rule = self.params.get("rule")
            if rule is None:
                gens = [group.parse(t) for t in self.strings("generators")]
            elif rule == "powers":
                if not isinstance(group, IntGroup):
                    raise GroupError("ip rule 'powers' requires the group z")
                b = self.base(2)
                gens, total, v = [], 0, 1
                while total + v <= window:
                    gens.append(v)
                    total += v
                    v *= b
                    if len(gens) == structures.MAX_GENERATORS:
                        break
            else:
                raise GroupError(f"unknown ip rule: {rule!r}")
            return structures.gen_ip(group, gens).elements
        if kind == "pwip":
            gens = [group.parse(t) for t in self.strings("generators")]
            shifts = [group.parse(t) for t in self.strings("shifts")]
            return structures.gen_pwip(group, gens, shifts).elements
        if kind == "wn":
            n = self.integer("support")
            return structures.gen_wn(window, n).elements
        if kind == "cantor":
            if self.params.get("levels") == "auto":
                levels = structures.cantor_levels_for_window(window)
            else:
                levels = self.integer("levels")
            return structures.gen_cantor_geodesic(levels).elements
        raise GroupError(f"unknown set kind: {kind!r}")

    def to_json_dict(self):
        out = {"group": self.group_spec, "kind": self.kind, **self.params}
        if self.window_extent is not None:
            out["window"] = str(self.window_extent)
        return out


def spec_from_json(obj):
    """Read a SetSpec from a parsed JSON object (the CLI file format)."""
    if not isinstance(obj, dict):
        raise GroupError("set spec must be a JSON object")
    data = dict(obj)
    for field, key in (("group_spec", "group"), ("window_extent", "window")):
        if field in data:
            raise GroupError(f"recipe key {field!r} is not a recipe "
                             f"parameter; the file names it {key!r}")
    group_spec = data.pop("group", "z")
    kind = data.pop("kind", None)
    window = None
    if "window" in data:
        window = integer(data.pop("window"), "recipe 'window'")
    return SetSpec.make(group_spec, kind, window_extent=window, **data)


def spec_from_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_json(json.load(fh))
