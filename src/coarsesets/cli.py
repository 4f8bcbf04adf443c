"""Single command-line entry point; every verdict is a JSON report.

Exit codes: 0 success, 1 negative verdict (NOT_FOUND and friends, for
shell pipelines), 2 input error (machine-readable object on stderr).
All numbers are serialized as strings so 64-bit values survive any
downstream JSON tooling.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import budgets, classifiers, density, structures
from .geometry import (Radius, cellularity_probe, chain_component, ball,
                       prec_mapping_check, word_radius)
from .groups import (BudgetExceededError, FiniteSample, GroupError,
                     group_from_spec)
from .recipes import KINDS, SetSpec, integer, spec_from_file

SCHEMA = "coarse-sets/1"

NEGATIVE_VERDICTS = {
    "NOT_FOUND", "NO_ISOLATED_BALLS_AT_SCALE", "NO_WITNESS_AT_SCALE",
    "NOT_CELLULAR_AT_SCALE", "NOT_PREC",
}


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as CliError, so they print as JSON errors."""

    def error(self, message):
        raise CliError(message)


# The recipe flags, in --help order; True marks a comma-separated list.
# Every value goes to the recipe as given; the recipe reads its types.
RECIPE_FLAGS = {"generators": True, "shifts": True, "elements": True,
                "support": False, "levels": False, "modulus": False,
                "residues": True, "base": False, "rule": False}


def _parse_radius(group, text):
    """Radius literal: ``wordball:r`` or a list of elements separated by
    ``group.radius_separator`` (``;`` for z^d, whose elements hold commas)."""
    text = text.strip()
    if text.startswith("wordball:"):
        return word_radius(group, int(text.split(":", 1)[1]))
    parts = text.split(group.radius_separator)
    return Radius(group, frozenset(group.parse(p) for p in parts if p))


def _recipe(args):
    """(recipe, group, window) of ``--set`` or the recipe flags."""
    if args.set:
        spec = spec_from_file(args.set)
    elif args.kind:
        spec = _spec_from_args(args)
    else:
        raise CliError("need --set FILE or --kind with --group")
    group = spec.group()
    if args.window is None:
        return spec, group, spec.default_window(group)
    return spec, group, group.window(args.window)


def _load_sample(args):
    spec, group, window = _recipe(args)
    return spec.resolve(group, window)


def _refuse_empty_interior(group, window, scale, message):
    """Raise ``message`` before any sample is built when no element of the
    window is interior at the scale's margin (none is unless e is)."""
    margin = scale.margin_for(group)
    if not group.interior(window, (group.identity(),), margin):
        raise GroupError(message)


def _spec_from_args(args):
    params = {}
    for name, is_list in RECIPE_FLAGS.items():
        value = getattr(args, name)
        if value is not None:
            params[name] = [t for t in value.split(",") if t] if is_list else value
    return SetSpec.make(args.group, args.kind, window_extent=args.window,
                        **params)


def _side_sample(path, sample):
    """The sample of a side recipe file (``--xset``, ``--ambient``) in the
    main sample's window; the file must name the main sample's group."""
    spec = spec_from_file(path)
    group = spec.group()
    if group != sample.group:
        raise GroupError(f"{path} names the group {group.spec}, "
                         f"but the sample's group is {sample.group.spec}")
    return spec.resolve(group, sample.window)


def _emit(body, args):
    """Print a command's report body under the schema header, write it to
    ``--out`` too, and return the exit code its verdict maps to."""
    report = {"schema": SCHEMA, **body}
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text, flush=True)
    return 1 if report.get("verdict") in NEGATIVE_VERDICTS else 0


# Each cmd_* returns its report body; run() emits it.

def cmd_gen(args):
    sample = _load_sample(args)
    group = sample.group
    return {
        "kind": "sample",
        "group": group.spec,
        "size": str(len(sample)),
        "elements": [group.render(x) for x in sample.ordered],
    }


def cmd_ball(args):
    group = group_from_spec(args.group)
    center = group.parse(args.center)
    radius = _parse_radius(group, args.radius)
    elems = ball(group, center, radius)
    return {
        "kind": "ball",
        "group": group.spec,
        "center": group.render(center),
        "radius": radius.describe(),
        "elements": [group.render(x) for x in group.sorted(elems)],
    }


def cmd_chain(args):
    sample = _load_sample(args)
    group = sample.group
    start = group.parse(args.start)
    radius = _parse_radius(group, args.radius)
    comp = chain_component(sample, start, radius)
    # the component lies in the sample, so equal sizes mean the same set
    ordered = sample.ordered if len(comp) == len(sample) else group.sorted(comp)
    return {
        "kind": "chain-component",
        "group": group.spec,
        "start": group.render(start),
        "radius": radius.describe(),
        "size": str(len(comp)),
        "elements": [group.render(x) for x in ordered],
    }


def cmd_cellular(args):
    spec, group, window = _recipe(args)
    radius = _parse_radius(group, args.radius)
    scale = budgets.preset(args.budget)
    _refuse_empty_interior(group, window, scale,
                           "interior empty at the requested margin")
    rep = cellularity_probe(spec.resolve(group, window), radius, scale)
    return {"group": group.spec, **rep.to_json_dict(group)}


def cmd_prec(args):
    with open(args.map, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not isinstance(data.get("pairs"), dict):
        raise GroupError("map file must be a JSON object whose 'pairs' is an object")
    if not all(isinstance(v, str) for v in data["pairs"].values()):
        raise GroupError("map 'pairs' values must be strings")
    group = group_from_spec(data.get("domain_group", "z"))
    cod = group_from_spec(data.get("codomain_group", data.get("domain_group", "z")))
    mapping = {group.parse(k): cod.parse(v) for k, v in data["pairs"].items()}
    window = group.window(integer(data.get("window", 256), "map 'window'"))
    domain = FiniteSample(group, frozenset(mapping), window)
    radius = _parse_radius(group, args.radius)
    rep = prec_mapping_check(mapping, domain, radius,
                             budgets.preset(args.budget), codomain=cod)
    return {"group": group.spec, **rep.to_json_dict(group)}


def cmd_detect_pwip(args):
    sample = _load_sample(args)
    scale = budgets.preset(args.budget)
    witness = structures.detect_pwip(sample, args.depth, scale=scale)
    return {
        "kind": "pwip-detect",
        "group": sample.group.spec,
        "depth": str(args.depth),
        "verdict": "FOUND" if witness else "NOT_FOUND",
        "witness": witness.to_json_dict() if witness else None,
    }


def cmd_classify(args):
    sample = _load_sample(args)
    return classifiers.classify(sample, budgets.preset(args.budget))


def cmd_thin(args):
    spec, group, window = _recipe(args)
    radius = _parse_radius(group, args.radius)
    scale = budgets.preset(args.budget)
    _refuse_empty_interior(group, window, scale,
                           "window too small for the interior margin")
    rep = classifiers.thin_degree(spec.resolve(group, window), radius, scale)
    return {"group": group.spec, **rep.to_json_dict(group)}


def cmd_sparse(args):
    sample = _load_sample(args)
    group = sample.group
    xsample = _side_sample(args.xset, sample) if args.xset else sample
    rep = classifiers.sparse_witness(sample, xsample, budgets.preset(args.budget))
    return {"group": group.spec, **rep.to_json_dict(group)}


def cmd_scattered(args):
    spec, group, window = _recipe(args)
    scale = budgets.preset(args.budget)
    _refuse_empty_interior(group, window, scale,
                           "interior empty at the requested margin")
    sample = spec.resolve(group, window)
    ambient = _side_sample(args.ambient, sample) if args.ambient else None
    rep = classifiers.isolated_balls_verdict(sample, scale, ambient=ambient)
    return {"group": group.spec, **rep.to_json_dict(group)}


def _density_recipe(args):
    if args.set:
        return spec_from_file(args.set)
    raise CliError("density commands need --set FILE")


def cmd_density(args):
    recipe = _density_recipe(args)
    profile = density.upper_density_profile(recipe, args.nmax, step=args.step)
    return profile.to_json_dict()


def cmd_density_pwip(args):
    return density.density_pwip_experiment(
        _density_recipe(args), args.depth, window_extent=args.window,
        scale=budgets.preset(args.budget))


def _add_set_args(p):
    p.add_argument("--set", help="SetSpec JSON file")
    p.add_argument("--group", default="z", help="group spec (z, z^2, z2sum:8, free:2)")
    p.add_argument("--kind", choices=KINDS)
    for name in RECIPE_FLAGS:
        p.add_argument("--" + name)
    p.add_argument("--window", type=int)


_REQUIRED = {"required": True}
_SET_FILE = ("--set", {"help": "SetSpec JSON file"})

# name -> (handler, help, takes the recipe flags, further arguments), in
# --help order
COMMANDS = {
    "gen": (cmd_gen, "materialize a set recipe", True, ()),
    "ball": (cmd_ball, "ball of radius F around an element", False,
             (("--group", {"default": "z"}), ("--center", _REQUIRED),
              ("--radius", _REQUIRED))),
    "chain": (cmd_chain, "chain component inside a sample", True,
              (("--start", _REQUIRED), ("--radius", _REQUIRED))),
    "cellular": (cmd_cellular, "cellularity probe", True,
                 (("--radius", _REQUIRED),)),
    "prec": (cmd_prec, "verify a supplied ball-contraction mapping", False,
             (("--map", {"required": True, "help": "JSON mapping file"}),
              ("--radius", _REQUIRED))),
    "detect-pwip": (cmd_detect_pwip, "shifted-product witness search", True,
                    (("--depth", {"type": int, "required": True}),)),
    "classify": (cmd_classify, "combined classification report", True, ()),
    "thin": (cmd_thin, "thin degree at a radius", True,
             (("--radius", _REQUIRED),)),
    "sparse": (cmd_sparse, "translate-intersection witness search", True,
               (("--xset", {"help": "SetSpec file for the X pool"}),)),
    "scattered": (cmd_scattered, "isolated-balls verdict", True,
                  (("--ambient",
                    {"help": "SetSpec file for an ambient universe"}),)),
    "density": (cmd_density, "upper-density profile", False,
                (_SET_FILE, ("--nmax", {"type": int, "default": 100000}),
                 ("--step", {"type": int}))),
    "density-pwip": (cmd_density_pwip, "density vs structure experiment",
                     False, (_SET_FILE, ("--depth", {"type": int, "default": 3}),
                             ("--window", {"type": int}))),
}


def build_parser(command=None):
    """The argument parser, built once per process for each ``command``;
    with a known ``command``, only that subcommand is registered (help
    and error texts for other input need every subcommand, and all such
    input shares one full parser)."""
    return _parser(command if command in COMMANDS else None)


@functools.cache
def _parser(command):
    parser = _Parser(
        prog="coarsesets",
        description="Finite-scale verdicts for thin, sparse and scattered subsets of groups")
    sub = parser.add_subparsers(dest="command", required=True)
    names = [command] if command else COMMANDS
    for name in names:
        fn, text, set_args, extra = COMMANDS[name]
        p = sub.add_parser(name, help=text)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="also write the report to a file")
        p.add_argument("--budget", default="medium",
                       choices=("small", "medium", "large"))
        if set_args:
            _add_set_args(p)
        for flag, kw in extra:
            p.add_argument(flag, **kw)
    return parser


def run(argv):
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        return _emit(args.fn(args), args)
    except SystemExit as exc:   # --help
        return exc.code or 0
    except BrokenPipeError:
        # the reader closed stdout: exit as a SIGPIPE kill would, with
        # stdout on devnull so that the interpreter's last flush is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (BudgetExceededError, CliError, OSError, ValueError,
            KeyError) as exc:
        err = {
            "schema": SCHEMA,
            "kind": "error",
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        print(json.dumps(err, indent=2), file=sys.stderr)
        return 2


def main():
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
