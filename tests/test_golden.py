"""Golden outputs: the sha256 of stdout and the exit code of fixed CLI runs.

The hashes in ``golden_sha256.json`` pin the JSON the CLI prints for the
acceptance battery, for one input per group family, for the pwip
detector at depths 1-4, ``sparse`` and the ``ip``/``pwip`` generators
on every family, and for ``density``, ``density-pwip`` and ``prec`` on z, so a
refactor that changes any byte of a report fails here.  After an intended output
change, regenerate the file with ``PYTHONPATH=src python tests/test_golden.py``
and say in the change log which outputs moved.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from coarsesets.cli import run

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden_sha256.json")

# The acceptance battery of test_acceptance.py, as recipe files.
BATTERY = {
    "powers-of-2": {"group": "z", "kind": "powers", "base": 2, "window": 512},
    "powers-of-4": {"group": "z", "kind": "powers", "base": 4, "window": 512},
    "w2-sample": {"group": "z2sum:8", "kind": "wn", "support": 2},
    "cantor-auto": {"group": "z", "kind": "cantor", "levels": "auto",
                    "window": 500},
    "z-window": {"group": "z", "kind": "window", "window": 128},
    "evens": {"group": "z", "kind": "periodic", "modulus": 2,
              "residues": ["0"], "window": 256},
    "pwip-output": {"group": "z", "kind": "pwip",
                    "generators": ["1", "300", "90000"],
                    "shifts": ["0", "0", "0"]},
}

LATTICE_SET = {"group": "z^2", "kind": "explicit",
               "elements": ["0,0", "1,0", "2,1", "5,5", "6,5", "20,0", "-3,7"]}
FREE_SET = {"group": "free:2", "kind": "explicit",
            "elements": ["e", "a", "aa", "ab", "b", "bab", "BAbb", "AAA"]}

# name -> (argv, recipe written to the file that "{set}" names, or None)
CASES = {}
for _name, _recipe in BATTERY.items():
    for _budget in ("small", "medium"):
        CASES[f"classify/{_name}/{_budget}"] = (
            ["classify", "--set", "{set}", "--budget", _budget], _recipe)

CASES.update({
    # z
    "gen/z": (["gen", "--group", "z", "--kind", "powers", "--base", "3",
               "--window", "300"], None),
    "ball/z": (["ball", "--group", "z", "--center", "5",
                "--radius=-2,1,3"], None),
    "chain/z": (["chain", "--group", "z", "--kind", "explicit", "--elements",
                 "0,1,3,4,9,10,30", "--start", "3", "--radius=-1,1,2"], None),
    "thin/z": (["thin", "--group", "z", "--kind", "powers", "--base", "4",
                "--window", "512", "--radius=-1,1"], None),
    "cellular/z": (["cellular", "--group", "z", "--kind", "window",
                    "--window", "64", "--radius", "wordball:1",
                    "--budget", "small"], None),
    # z^2, with ';' between the elements of a radius literal
    "gen/z^2": (["gen", "--group", "z^2", "--kind", "window", "--window",
                 "2"], None),
    "ball/z^2": (["ball", "--group", "z^2", "--center", "1,2",
                  "--radius", "1,0;0,1;-1,-1"], None),
    "chain/z^2": (["chain", "--group", "z^2", "--kind", "window", "--window",
                   "3", "--start", "0,0", "--radius", "2,0;0,2"], None),
    "thin/z^2": (["thin", "--set", "{set}", "--radius", "1,0;0,1",
                  "--budget", "small"], LATTICE_SET),
    "cellular/z^2": (["cellular", "--set", "{set}", "--radius", "1,0;-1,0",
                      "--budget", "small"], LATTICE_SET),
    # z2sum
    "gen/z2sum": (["gen", "--group", "z2sum:6", "--kind", "wn", "--support",
                   "2"], None),
    "ball/z2sum": (["ball", "--group", "z2sum:8", "--center", "1100",
                    "--radius", "wordball:2"], None),
    "chain/z2sum": (["chain", "--group", "z2sum:6", "--kind", "explicit",
                     "--elements", "000000,100000,110000,000111,111111",
                     "--start", "000000", "--radius", "100000,010000"], None),
    "thin/z2sum": (["thin", "--group", "z2sum:8", "--kind", "wn",
                    "--support", "2", "--radius", "wordball:1",
                    "--budget", "small"], None),
    "cellular/z2sum": (["cellular", "--group", "z2sum:6", "--kind", "wn",
                        "--support", "1", "--radius", "wordball:1",
                        "--budget", "small"], None),
    # free:2
    "gen/free": (["gen", "--group", "free:2", "--kind", "window", "--window",
                  "3"], None),
    "ball/free": (["ball", "--group", "free:2", "--center", "ab",
                   "--radius", "wordball:2"], None),
    "chain/free": (["chain", "--set", "{set}", "--start", "e",
                    "--radius", "a,b"], FREE_SET),
    "thin/free": (["thin", "--set", "{set}", "--radius", "wordball:1",
                   "--budget", "small"], FREE_SET),
    "cellular/free": (["cellular", "--set", "{set}", "--radius", "a,A",
                       "--budget", "small"], FREE_SET),
})

# One input per family for the pwip detector and the ip/pwip generators.
PWIP_INPUTS = {
    "z": {"group": "z", "kind": "powers", "base": 2, "window": 512},
    "z^2": LATTICE_SET,
    "z2sum": {"group": "z2sum:6", "kind": "wn", "support": 2},
    "free": FREE_SET,
}
GEN_RECIPES = {
    "z": (["1", "10", "100"], ["0", "5", "-3"]),
    "z^2": (["1,0", "0,1", "3,3"], ["0,0", "-1,2", "4,0"]),
    "z2sum": (["100000", "010000", "001100"], ["000000", "000001", "110000"]),
    "free": (["a", "b", "Ab"], ["", "B", "aa"]),
}
_GROUPS = {"z": "z", "z^2": "z^2", "z2sum": "z2sum:6", "free": "free:2"}
for _family, _recipe in PWIP_INPUTS.items():
    for _depth in (1, 2, 3):
        CASES[f"detect-pwip/{_family}/d{_depth}"] = (
            ["detect-pwip", "--set", "{set}", "--depth", str(_depth),
             "--budget", "small"], _recipe)
# Depth 4 at the large budget reaches stages 3 and 4 of the search: one
# input with a witness per family, and two that run it to exhaustion.
DEPTH4_INPUTS = {
    "z": {"group": "z", "kind": "window", "window": 16},
    "z^2": {"group": "z^2", "kind": "window", "window": 2},
    "z2sum": {"group": "z2sum:6", "kind": "wn", "support": 3},
    "free": {"group": "free:2", "kind": "window", "window": 3},
    "z2sum/exhaust": PWIP_INPUTS["z2sum"],
    "free/exhaust": {"group": "free:2", "kind": "window", "window": 2},
}
for _name, _recipe in DEPTH4_INPUTS.items():
    CASES[f"detect-pwip/{_name}/d4/large"] = (
        ["detect-pwip", "--set", "{set}", "--depth", "4", "--budget",
         "large"], _recipe)
# Sets whose quotients y.x^-1 are all distinct have no depth-3 witness:
# stage 2 would need g_0 = (g_0.x).x^-1 = (g_0.t).t^-1 with x != t.
DISTINCT_QUOTIENTS = {
    "z": ["1", "2", "4", "8", "13", "21", "31", "45", "66", "81", "97",
          "123", "148", "182", "204", "252"],
    "free": ["aa", "aba", "BBa", "abaBa", "abA", "bb", "b", "BBAA", "bba",
             "ABABA", "AAB", "BaB"],
}
for _family, _elements in DISTINCT_QUOTIENTS.items():
    CASES[f"detect-pwip/{_family}/d3/distinct-quotients"] = (
        ["detect-pwip", "--set", "{set}", "--depth", "3", "--budget",
         "large"],
        {"group": _GROUPS[_family], "kind": "explicit",
         "elements": _elements})
for _family, (_gens, _shifts) in GEN_RECIPES.items():
    _group = _GROUPS[_family]
    CASES[f"gen-ip/{_family}"] = (["gen", "--set", "{set}"], {
        "group": _group, "kind": "ip", "generators": _gens})
    CASES[f"gen-pwip/{_family}"] = (["gen", "--set", "{set}"], {
        "group": _group, "kind": "pwip", "generators": _gens,
        "shifts": _shifts})

CASES.update({
    "sparse/z": (["sparse", "--group", "z", "--kind", "powers", "--base",
                  "2", "--window", "512", "--budget", "small"], None),
    "scattered/z": (["scattered", "--group", "z", "--kind", "powers",
                     "--base", "3", "--window", "729", "--budget", "small"],
                    None),
    "density-pwip/z": (["density-pwip", "--set", "{set}", "--depth", "3",
                        "--budget", "small"],
                       {"group": "z", "kind": "periodic", "modulus": 5,
                        "residues": ["0", "2"]}),
    "density-pwip/z/window50": (
        ["density-pwip", "--set", "{set}", "--depth", "3", "--window", "50",
         "--budget", "small"],
        {"group": "z", "kind": "periodic", "modulus": 5,
         "residues": ["0", "2"]}),
})

# sparse on one window or wn set per family.  The z window has no witness,
# so it runs the whole candidate cap: at small that reaches the 3-element
# candidates.  The --xset case reads X from the file "{set}" names.
SPARSE_INPUTS = {
    "z/window/small": ["--group", "z", "--kind", "window", "--window", "128",
                       "--budget", "small"],
    "z/window/medium": ["--group", "z", "--kind", "window", "--window", "128",
                        "--budget", "medium"],
    "z^2": ["--group", "z^2", "--kind", "window", "--window", "2",
            "--budget", "medium"],
    "z2sum": ["--group", "z2sum:8", "--kind", "wn", "--support", "2",
              "--budget", "medium"],
    "free": ["--group", "free:2", "--kind", "window", "--window", "3",
             "--budget", "medium"],
}
for _name, _args in SPARSE_INPUTS.items():
    CASES[f"sparse/{_name}"] = (["sparse", *_args], None)
CASES["sparse/z/xset"] = (
    ["sparse", "--group", "z", "--kind", "periodic", "--modulus", "2",
     "--residues", "0", "--window", "256", "--xset", "{set}",
     "--budget", "medium"],
    {"group": "z", "kind": "explicit", "elements": ["0", "2", "4", "6", "1"]})

# density on the closed-form periodic count and on an explicit set; the
# step 70 does not divide n_max, so the last entry is n_max itself.
PERIODIC_SET = {"group": "z", "kind": "periodic", "modulus": 7,
                "residues": ["0", "3", "4"]}
CASES.update({
    "density/periodic": (["density", "--set", "{set}", "--nmax", "1000"],
                         PERIODIC_SET),
    "density/periodic/step70": (["density", "--set", "{set}", "--nmax",
                                 "1000", "--step", "70"], PERIODIC_SET),
    "density/explicit": (["density", "--set", "{set}", "--nmax", "500"],
                         {"group": "z", "kind": "explicit",
                          "elements": [str(n * n) for n in range(-20, 21)]}),
})

# Restricted-ball sizes and chain partitions, by kernel.  On z, an integer
# interval radius (every word ball and thickened word ball) and a gapped
# one; the smaller-side translate on z^2, free:2 and a z2sum wn set, whose
# enlargements hold up to the whole cube; and an ambient universe on z.
CASES.update({
    "thin/z/window/wordball:3": (
        ["thin", "--group", "z", "--kind", "window", "--window", "100",
         "--radius", "wordball:3", "--budget", "small"], None),
    "thin/z/window/gapped": (
        ["thin", "--group", "z", "--kind", "window", "--window", "100",
         "--radius=-3,2", "--budget", "small"], None),
    "scattered/z^2": (["scattered", "--set", "{set}", "--budget", "small"],
                      LATTICE_SET),
    "scattered/free": (["scattered", "--set", "{set}", "--budget", "small"],
                       FREE_SET),
    "scattered/z2sum": (["scattered", "--group", "z2sum:8", "--kind", "wn",
                         "--support", "2", "--budget", "small"], None),
    "scattered/z/ambient": (
        ["scattered", "--group", "z", "--kind", "periodic", "--modulus", "10",
         "--residues", "0", "--window", "300", "--ambient", "{set}",
         "--budget", "small"],
        {"group": "z", "kind": "periodic", "modulus": 5,
         "residues": ["0", "1"]}),
    "cellular/z/window/wordball:2": (
        ["cellular", "--group", "z", "--kind", "window", "--window", "64",
         "--radius", "wordball:2", "--budget", "small"], None),
    "cellular/z/window/gapped": (
        ["cellular", "--group", "z", "--kind", "window", "--window", "64",
         "--radius=-3,3", "--budget", "small"], None),
    "cellular/z/powers/wordball:2": (
        ["cellular", "--group", "z", "--kind", "powers", "--base", "2",
         "--window", "512", "--radius", "wordball:2", "--budget", "small"],
        None),
})

# Extent 0 is a window like any other: z2sum windows are all interior,
# so classify reads its thin degrees off the outer sample at extent 2.
CASES["classify/z2sum/window0/small"] = (
    ["classify", "--group", "z2sum:4", "--kind", "window", "--window", "0",
     "--budget", "small"], None)

# prec on the doubling map x -> 2x, written to the file "{set}" names.
DOUBLING_MAP = {"domain_group": "z", "window": 120,
                "pairs": {str(x): str(2 * x) for x in range(-120, 121)}}
for _budget in ("small", "medium"):
    CASES[f"prec/z/{_budget}"] = (
        ["prec", "--map", "{set}", "--radius=-1,1", "--budget", _budget],
        DOUBLING_MAP)


def run_case(name, directory):
    """(exit code, sha256 of stdout) of one case; recipe files go to
    ``directory``."""
    argv, recipe = CASES[name]
    if recipe is not None:
        path = os.path.join(directory, "recipe.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(recipe, fh)
        argv = [path if a == "{set}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    expected = _golden()[name]
    code, digest = run_case(name, str(tmp_path))
    assert (code, digest) == (expected["exit"], expected["stdout_sha256"])


if __name__ == "__main__":
    import tempfile

    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            code, digest = run_case(case, tmp)
            table[case] = {"exit": code, "stdout_sha256": digest}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
