import json
import os
import subprocess
import sys

import pytest

jsonschema = pytest.importorskip("jsonschema")

import coarsesets
from coarsesets import structures
from coarsesets.cli import COMMANDS, build_parser, run
from coarsesets.geometry import chain_component, word_radius
from coarsesets.recipes import SetSpec

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "schemas", "coarse-sets-1.schema.json")
with open(SCHEMA_PATH, encoding="utf-8") as fh:
    REPORT_SCHEMA = json.load(fh)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    report = json.loads(out if out.strip() else err)
    jsonschema.validate(report, REPORT_SCHEMA)
    return code, report


def test_gen_ip(capsys):
    code, report = invoke_json(capsys, "gen", "--group", "z", "--kind", "ip",
                               "--generators", "1,2,4,8,16")
    assert code == 0
    assert report["size"] == "31"
    assert report["elements"][0] == "1"


def test_ball(capsys):
    code, report = invoke_json(capsys, "ball", "--group", "z",
                               "--center", "5", "--radius=-1,1")
    assert code == 0
    assert report["elements"] == ["4", "5", "6"]


def test_ball_wordball_radius(capsys):
    code, report = invoke_json(capsys, "ball", "--group", "free:2",
                               "--center", "b", "--radius", "wordball:1")
    assert code == 0
    # wordball:1 = {e,a,A,b,B}; left translates of "b" include B.b = e
    assert sorted(report["elements"]) == sorted(["e", "b", "ab", "Ab", "bb"])


def test_chain(capsys):
    code, report = invoke_json(capsys, "chain", "--group", "z", "--kind",
                               "explicit", "--elements", "0,1,2,10,11",
                               "--start", "0", "--radius=-1,1")
    assert code == 0
    assert report["elements"] == ["0", "1", "2"]


@pytest.mark.parametrize("argv,spec,start,whole", [
    (["--group", "free:2", "--kind", "window", "--window", "3"],
     SetSpec.make("free:2", "window", 3), "ab", True),
    (["--group", "z", "--kind", "explicit", "--elements", "0,1,2,10,11"],
     SetSpec.make("z", "explicit", elements=["0", "1", "2", "10", "11"]),
     "10", False)], ids=["window", "two-components"])
def test_chain_prints_the_component_sorted(capsys, argv, spec, start, whole):
    # on a window the component is the whole sample, whose order is read
    # off the sample; elsewhere the component is sorted
    code, report = invoke_json(capsys, "chain", *argv, f"--start={start}",
                               "--radius", "wordball:1")
    assert code == 0
    sample = spec.resolve()
    group = sample.group
    comp = chain_component(sample, group.parse(start), word_radius(group, 1))
    assert (comp == sample.elements) == whole
    assert report["elements"] == [group.render(x) for x in group.sorted(comp)]


def test_cellular_negative_exit(capsys):
    code, report = invoke_json(capsys, "cellular", "--group", "z", "--kind",
                               "window", "--window", "64",
                               "--radius", "wordball:1", "--budget", "small")
    assert code == 1
    assert report["verdict"] == "NOT_CELLULAR_AT_SCALE"


def test_detect_pwip_found_and_not(capsys):
    code, report = invoke_json(capsys, "detect-pwip", "--group", "z",
                               "--kind", "powers", "--base", "2",
                               "--window", "512", "--depth", "2")
    assert code == 0
    assert report["verdict"] == "FOUND"
    assert report["witness"]["depth"] == "2"
    code, report = invoke_json(capsys, "detect-pwip", "--group", "z",
                               "--kind", "powers", "--base", "2",
                               "--window", "512", "--depth", "3")
    assert code == 1
    assert report["verdict"] == "NOT_FOUND"


def test_classify_cantor(capsys, tmp_path):
    spec = tmp_path / "cantor.json"
    spec.write_text(json.dumps(
        {"group": "z", "kind": "cantor", "levels": "auto", "window": 500}))
    code, report = invoke_json(capsys, "classify", "--set", str(spec),
                               "--budget", "medium")
    assert code == 0
    assert report["isolated_balls"]["verdict"] == "NO_ISOLATED_BALLS_AT_SCALE"
    assert report["sparse"]["verdict"] == "NO_WITNESS_AT_SCALE"


def test_thin_subcommand(capsys):
    code, report = invoke_json(capsys, "thin", "--group", "z", "--kind",
                               "powers", "--base", "4", "--window", "512",
                               "--radius=-1,1")
    assert code == 0
    assert report["degree"] == "1"


@pytest.mark.parametrize("group, elements, window", [
    ("z", "0,1,99", "40"),
    ("z2sum:4", "0000,1000,000001", "4"),
], ids=["z", "z2sum"])
def test_thin_drops_explicit_elements_outside_the_window(
        capsys, group, elements, window):
    # 99 and the mask of bit 5 lie outside their windows, so neither is
    # interior, on z2sum as on every family
    code, report = invoke_json(capsys, "thin", "--group", group, "--kind",
                               "explicit", "--elements", elements,
                               "--window", window, "--radius", "wordball:1",
                               "--budget", "small")
    assert code == 0
    assert report["interior_size"] == "2"


def test_sparse_subcommand(capsys):
    code, report = invoke_json(capsys, "sparse", "--group", "z", "--kind",
                               "window", "--window", "128")
    assert code == 1
    assert report["verdict"] == "NO_WITNESS_AT_SCALE"


def test_scattered_subcommand(capsys):
    code, report = invoke_json(capsys, "scattered", "--group", "z", "--kind",
                               "powers", "--base", "2", "--window", "512")
    assert code == 0
    assert report["verdict"] == "HAS_ISOLATED_BALLS"
    assert report["winning_radius"] == "wordball:0"


def test_prec_subcommand(capsys, tmp_path):
    pairs = {str(x): str(2 * x) for x in range(-50, 51)}
    mapfile = tmp_path / "map.json"
    mapfile.write_text(json.dumps(
        {"domain_group": "z", "pairs": pairs, "window": 50}))
    code, report = invoke_json(capsys, "prec", "--map", str(mapfile),
                               "--radius=-1,1", "--budget", "small")
    assert code == 0
    assert report["verdict"] == "PREC"
    assert report["found_radius"] == "wordball:2"


def test_density_subcommand(capsys, tmp_path):
    spec = tmp_path / "thirds.json"
    spec.write_text(json.dumps(
        {"group": "z", "kind": "periodic", "modulus": 3, "residues": ["0"]}))
    code, report = invoke_json(capsys, "density", "--set", str(spec),
                               "--nmax", "10000")
    assert code == 0
    assert abs(float(report["estimate"]) - 1 / 3) < 1e-2


def test_density_pwip_subcommand(capsys, tmp_path):
    spec = tmp_path / "evens.json"
    spec.write_text(json.dumps(
        {"group": "z", "kind": "periodic", "modulus": 2, "residues": ["0"]}))
    code, report = invoke_json(capsys, "density-pwip", "--set", str(spec),
                               "--depth", "3")
    assert code == 0
    assert report["verdict"] == "FOUND"


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = invoke(capsys, "gen", "--group", "z", "--kind", "explicit",
                          "--elements", "1,2,3", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["size"] == "3"
    assert out.strip()


def test_input_errors(capsys):
    code, out, err = invoke(capsys, "gen", "--group", "z", "--kind", "periodic",
                            "--modulus", "0", "--residues", "0")
    assert code == 2
    report = json.loads(err)
    assert report["kind"] == "error"
    code, _, err = invoke(capsys, "classify", "--set", "/nonexistent.json")
    assert code == 2
    code, _, err = invoke(capsys, "ball", "--group", "z", "--center", "x",
                          "--radius=-1,1")
    assert code == 2


def test_byte_determinism(capsys):
    args = ("classify", "--group", "z", "--kind", "powers", "--base", "2",
            "--window", "512", "--budget", "medium")
    _, out1, _ = invoke(capsys, *args)
    _, out2, _ = invoke(capsys, *args)
    assert out1 == out2


def test_prec_map_not_an_object(capsys, tmp_path):
    mapfile = tmp_path / "map.json"
    for data in ([["1", "2"]], {"domain_group": "z", "pairs": [["1", "2"]]}):
        mapfile.write_text(json.dumps(data))
        code, report = invoke_json(capsys, "prec", "--map", str(mapfile),
                                   "--radius=-1,1")
        assert code == 2
        assert report["kind"] == "error"
        assert report["error"]["type"] == "GroupError"


def test_non_string_group_spec(capsys, tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"group": 5, "kind": "window"}))
    code, report = invoke_json(capsys, "gen", "--set", str(spec))
    assert code == 2
    assert report["error"]["type"] == "GroupError"


@pytest.mark.parametrize("field,key,value", [
    ("window_extent", "window", 3),
    ("group_spec", "group", "z"),
])
def test_recipe_file_rejects_setspec_field_names(capsys, tmp_path, field,
                                                key, value):
    """A file key naming a SetSpec field, not the file's own key, is an
    input error, not a keyword clash inside SetSpec.make."""
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"kind": "window", field: value}))
    code, out, err = invoke(capsys, "gen", "--set", str(spec))
    assert (code, out) == (2, "")
    report = json.loads(err)
    assert report["error"]["type"] == "GroupError"
    assert repr(field) in report["error"]["message"]
    assert repr(key) in report["error"]["message"]


@pytest.mark.parametrize("argv", [
    ("ball", "--group", "z", "--center", "0", "--radius", "wordball:99999999"),
    ("ball", "--group", "free:2", "--center", "e", "--radius",
     "wordball:99999999"),
    ("thin", "--group", "z^2", "--kind", "window", "--window", "2",
     "--radius", "wordball:99999999"),
    ("gen", "--group", "free:2", "--kind", "window", "--window", "99999999"),
    ("gen", "--group", "z2sum:24", "--kind", "wn", "--support", "24"),
])
def test_oversized_ball_or_window_exits_2(capsys, argv):
    code, report = invoke_json(capsys, *argv)
    assert code == 2
    assert report["error"]["type"] == "BudgetExceededError"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the stability resample of a wn "
                   "recipe on z2sum:23 is resolved at enlarged_extent(23) "
                   "= 25 coordinates, past gen_wn's cap of 24, and exits 2")
@pytest.mark.parametrize("command", [
    ("thin", "--radius", "wordball:1"),
    ("sparse",),
], ids=["thin", "sparse"])
def test_wn_recipe_answers_below_its_own_cap(capsys, command):
    code, report = invoke_json(capsys, *command, "--group", "z2sum:23",
                               "--kind", "wn", "--support", "1",
                               "--budget", "small")
    assert code in (0, 1), report


def test_cellular_and_prec_refuse_an_empty_interior(capsys, tmp_path):
    # the large free:2 margin is 8 + 6, so no word of a window of extent
    # 10 is interior; nor is any point of a z window 10 at margin 3 + 27
    code, report = invoke_json(capsys, "cellular", "--group", "free:2",
                               "--kind", "window", "--window", "10",
                               "--radius", "wordball:2", "--budget", "large")
    assert code == 2
    assert report["error"]["message"] == "interior empty at the requested margin"
    mapfile = tmp_path / "map.json"
    mapfile.write_text(json.dumps({"window": 10,
                                   "pairs": {"0": "5", "1": "100"}}))
    code, report = invoke_json(capsys, "prec", "--map", str(mapfile),
                               "--radius=-1,1", "--budget", "small")
    assert code == 2
    assert report["error"]["message"] == "interior empty at the requested margin"


@pytest.mark.parametrize("command, message", [
    ("cellular", "interior empty at the requested margin"),
    ("scattered", "interior empty at the requested margin"),
    ("thin", "window too small for the interior margin"),
])
def test_empty_interior_is_refused_before_the_sample_is_built(
        capsys, monkeypatch, command, message):
    # no word of a free:2 window of extent 10 is interior at the large
    # margin 8 + 6; the window holds 118,097 words
    calls = []
    resolve = SetSpec.resolve

    def counted(spec, *rest):
        calls.append(rest)
        return resolve(spec, *rest)

    monkeypatch.setattr(SetSpec, "resolve", counted)
    radius = ("--radius", "wordball:2") if command != "scattered" else ()
    code, report = invoke_json(capsys, command, "--group", "free:2",
                               "--kind", "window", "--window", "10",
                               "--budget", "large", *radius)
    assert code == 2 and calls == []
    assert report["error"] == {"type": "GroupError", "message": message}


@pytest.mark.parametrize("group", ["z", "z^2", "z2sum:4", "free:2"])
def test_negative_window_rejected(capsys, group):
    code, report = invoke_json(capsys, "gen", "--group", group, "--kind",
                               "window", "--window", "-3")
    assert code == 2
    assert report["error"]["type"] == "GroupError"


def test_density_pwip_window_zero(capsys, tmp_path):
    spec = tmp_path / "evens.json"
    spec.write_text(json.dumps(
        {"group": "z", "kind": "periodic", "modulus": 2, "residues": ["0"]}))
    code, report = invoke_json(capsys, "density-pwip", "--set", str(spec),
                               "--depth", "1", "--window", "0")
    assert code in (0, 1)
    assert report["window"] == "0"
    assert report["sample_size"] == "1"


def test_density_pwip_reads_the_recipe_window(capsys, tmp_path):
    spec = tmp_path / "evens.json"
    spec.write_text(json.dumps(
        {"group": "z", "kind": "periodic", "modulus": 2, "residues": ["0"],
         "window": 512}))
    code, report = invoke_json(capsys, "density-pwip", "--set", str(spec),
                               "--depth", "1")
    assert code == 0
    assert (report["window"], report["sample_size"]) == ("512", "513")
    code, report = invoke_json(capsys, "density-pwip", "--set", str(spec),
                               "--depth", "1", "--window", "40")
    assert (report["window"], report["sample_size"]) == ("40", "41")


def test_density_accepts_every_spelling_of_z(capsys, tmp_path):
    spec = tmp_path / "thirds.json"
    spec.write_text(json.dumps(
        {"group": " Z ", "kind": "periodic", "modulus": 3, "residues": ["0"]}))
    code, report = invoke_json(capsys, "density", "--set", str(spec),
                               "--nmax", "3000")
    assert code == 0
    assert abs(float(report["estimate"]) - 1 / 3) < 1e-2
    code, report = invoke_json(capsys, "density-pwip", "--set", str(spec),
                               "--depth", "2")
    assert code == 0
    assert report["verdict"] == "FOUND"
    spec.write_text(json.dumps(
        {"group": "z^2", "kind": "explicit", "elements": ["0,0"]}))
    code, report = invoke_json(capsys, "density", "--set", str(spec))
    assert code == 2
    assert "require the group z" in report["error"]["message"]


@pytest.mark.parametrize("recipe", [
    {"group": "z2sum:6", "kind": "wn", "support": 2},
    {"group": "z^2", "kind": "explicit", "elements": ["1,2"]},
], ids=["z2sum-wn", "z2-explicit"])
def test_density_pwip_refuses_groups_other_than_z(capsys, tmp_path, recipe):
    # density-pwip resolves its recipe in z, so a recipe naming another
    # group is refused as density refuses it, after the window check
    spec = tmp_path / "recipe.json"
    spec.write_text(json.dumps(recipe))
    for command in (["density"], ["density-pwip", "--depth", "2"]):
        code, report = invoke_json(capsys, *command, "--set", str(spec))
        assert code == 2
        assert report["error"]["message"] == \
            "density profiles require the group z"
    code, report = invoke_json(capsys, "density-pwip", "--set", str(spec),
                               "--window", "-3")
    assert code == 2
    assert report["error"]["message"] == "window extent must be >= 0, got -3"


def test_pwip_recipe_generator_cap(capsys, tmp_path):
    spec = tmp_path / "pwip.json"
    spec.write_text(json.dumps({
        "group": "z", "kind": "pwip",
        "generators": [str(3 ** i) for i in range(21)],
        "shifts": ["0"] * 21}))
    code, report = invoke_json(capsys, "gen", "--set", str(spec))
    assert code == 2
    assert report["error"]["message"] == "at most 20 generators"


@pytest.mark.parametrize("recipe", [
    pytest.param({"kind": "explicit", "elements": [1, 2]}, id="int-elements"),
    pytest.param({"kind": "explicit", "elements": "12"}, id="string-elements"),
    pytest.param({"kind": "explicit", "elements": None}, id="null-elements"),
    pytest.param({"kind": "periodic", "modulus": 3, "residues": "01"},
                 id="string-residues"),
    pytest.param({"kind": "periodic", "modulus": 3, "residues": [0, 1]},
                 id="int-residues"),
    pytest.param({"kind": "ip", "generators": "12"}, id="string-generators"),
    pytest.param({"kind": "ip", "generators": [1, 2]}, id="int-generators"),
    pytest.param({"kind": "pwip", "generators": ["1", "2"], "shifts": "00"},
                 id="string-shifts"),
    pytest.param({"kind": "pwip", "generators": [["1"], ["2"]],
                  "shifts": ["0", "0"]}, id="nested-generators"),
])
def test_badly_typed_recipe_values(capsys, tmp_path, recipe):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"group": "z", **recipe}))
    code, report = invoke_json(capsys, "gen", "--set", str(spec))
    assert code == 2
    assert report["error"]["type"] == "GroupError"
    assert "must be a list of strings" in report["error"]["message"]


def test_density_rejects_string_residues(capsys, tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(
        {"group": "z", "kind": "periodic", "modulus": 3, "residues": "01"}))
    code, report = invoke_json(capsys, "density", "--set", str(spec),
                               "--nmax", "100")
    assert code == 2
    assert "must be a list of strings" in report["error"]["message"]


def test_prec_map_value_not_a_string(capsys, tmp_path):
    mapfile = tmp_path / "map.json"
    mapfile.write_text(json.dumps({"domain_group": "z", "pairs": {"1": 2}}))
    code, report = invoke_json(capsys, "prec", "--map", str(mapfile),
                               "--radius=-1,1")
    assert code == 2
    assert report["error"]["type"] == "GroupError"


@pytest.mark.parametrize("argv", [
    pytest.param(("gen", "--kind", "bogus"), id="bad-kind"),
    pytest.param(("detect-pwip", "--kind", "powers", "--base", "2"),
                 id="missing-depth"),
    pytest.param(("detect-pwip", "--kind", "powers", "--base", "2",
                  "--depth", "x"), id="non-integer-depth"),
    pytest.param(("gen", "--kind", "window", "--window", "x"),
                 id="non-integer-window"),
    pytest.param(("gen", "--kind", "window", "--no-such-flag"),
                 id="unknown-flag"),
    pytest.param((), id="no-command"),
])
def test_usage_errors_are_json(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    report = json.loads(err)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["kind"] == "error"
    assert report["error"]["type"] == "CliError"


def _subcommands(parser):
    return list(parser._subparsers._group_actions[0].choices)


def test_parser_registers_only_the_named_subcommand(capsys):
    assert _subcommands(build_parser()) == list(COMMANDS)
    assert _subcommands(build_parser("thin")) == ["thin"]
    for other in (None, "bogus", "-h"):
        assert _subcommands(build_parser(other)) == list(COMMANDS)
    # one parser per subcommand per process, and one full parser for
    # every other first argument, so the cache stays bounded
    assert build_parser("thin") is build_parser("thin")
    assert build_parser(None) is build_parser("bogus") is build_parser("-h")
    # an unknown command still gets the full parser and its choices
    code, out, err = invoke(capsys, "bogus")
    assert code == 2
    message = json.loads(err)["error"]["message"]
    assert all(repr(name) in message for name in COMMANDS)
    code, out, err = invoke(capsys, "--help")
    assert code == 0
    assert all(name in out for name in COMMANDS)


def test_reused_parsers_share_no_state(capsys, monkeypatch, tmp_path):
    ip_set = ("--group", "z", "--kind", "ip", "--generators", "1,10,100")
    budgets = []
    detect = structures.detect_pwip

    def spy(sample, depth, scale):
        budgets.append(scale.name)
        return detect(sample, depth, scale=scale)

    monkeypatch.setattr(structures, "detect_pwip", spy)
    target = tmp_path / "report.json"
    code, report = invoke_json(capsys, "detect-pwip", *ip_set, "--depth",
                               "1", "--budget", "small", "--out", str(target))
    assert (code, report["depth"]) == (0, "1")
    assert json.loads(target.read_text()) == report
    target.write_text("untouched")
    code, report = invoke_json(capsys, "detect-pwip", *ip_set,
                               "--depth", "2")
    assert (code, report["depth"]) == (0, "2")
    assert budgets == ["small", "medium"]
    assert target.read_text() == "untouched"

    good = ("detect-pwip", *ip_set, "--depth", "3")
    first = invoke(capsys, *good)
    code, out, err = invoke(capsys, "detect-pwip", *ip_set, "--depth", "3",
                            "--no-such-flag")
    assert (code, out) == (2, "")
    assert json.loads(err)["kind"] == "error"
    assert invoke(capsys, *good) == first

    code, out, _ = invoke(capsys, "--help")
    assert code == 0
    assert all(name in out for name in COMMANDS)


def test_help_exits_zero(capsys):
    code, out, err = invoke(capsys, "gen", "--help")
    assert code == 0
    assert out.startswith("usage: coarsesets gen")
    assert err == ""


MISSING = object()

# For each integer field, a recipe that is valid once the field is set.
INTEGER_FIELD_RECIPES = {
    "modulus": {"group": "z", "kind": "periodic", "residues": ["0"]},
    "base": {"group": "z", "kind": "powers"},
    "support": {"group": "z2sum:8", "kind": "wn"},
    "levels": {"group": "z", "kind": "cantor"},
    "window": {"group": "z", "kind": "window"},
}
BAD_INTEGERS = {"missing": MISSING, "null": None, "float": 2.9, "true": True,
                "string": "x"}


@pytest.mark.parametrize("field,bad", [
    pytest.param(field, bad, id=f"{field}-{bad}")
    for field in INTEGER_FIELD_RECIPES for bad in BAD_INTEGERS
    # a recipe without a window uses the group's default window
    if (field, bad) != ("window", "missing")
])
def test_badly_typed_integer_fields(capsys, tmp_path, field, bad):
    recipe = dict(INTEGER_FIELD_RECIPES[field])
    if BAD_INTEGERS[bad] is not MISSING:
        recipe[field] = BAD_INTEGERS[bad]
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(recipe))
    code, report = invoke_json(capsys, "gen", "--set", str(spec))
    assert code == 2
    assert report["error"]["type"] == "GroupError"
    assert report["error"]["message"] == f"recipe {field!r} must be an integer"


@pytest.mark.parametrize("modulus,message", [
    pytest.param(0, "modulus must be >= 1", id="zero"),
    pytest.param(None, "recipe 'modulus' must be an integer", id="null"),
])
def test_density_checks_the_modulus(capsys, tmp_path, modulus, message):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"group": "z", "kind": "periodic",
                                "modulus": modulus, "residues": ["0"]}))
    code, report = invoke_json(capsys, "density", "--set", str(spec),
                               "--nmax", "100")
    assert code == 2
    assert report["error"]["type"] == "GroupError"
    assert report["error"]["message"] == message


def test_prec_map_window_not_an_integer(capsys, tmp_path):
    mapfile = tmp_path / "map.json"
    mapfile.write_text(json.dumps(
        {"domain_group": "z", "pairs": {"1": "2"}, "window": "x"}))
    code, report = invoke_json(capsys, "prec", "--map", str(mapfile),
                               "--radius=-1,1")
    assert code == 2
    assert report["error"]["type"] == "GroupError"
    assert report["error"]["message"] == "map 'window' must be an integer"


@pytest.mark.parametrize("argv,message", [
    pytest.param(("--kind", "periodic", "--modulus", "x", "--residues", "0"),
                 "recipe 'modulus' must be an integer", id="modulus"),
    pytest.param(("--kind", "periodic", "--modulus", "3", "--residues", "0,y"),
                 "recipe 'residues' entry must be an integer", id="residue"),
    pytest.param(("--kind", "ip", "--rule", "", "--generators", "1,2"),
                 "unknown ip rule: ''", id="empty-rule"),
    pytest.param(("--group", "z^2", "--kind", "cantor", "--levels", "2"),
                 "cantor recipes require the group z", id="cantor-group"),
    # the ip rule refuses a base below 2 as the powers kind does
    *(pytest.param(("--kind", "ip", "--rule", "powers", f"--base={b}",
                    "--window", "100"),
                   "base must be >= 2", id=f"ip-rule-base{b}")
      for b in (-2, 1, 0, -1)),
])
def test_badly_typed_recipe_flags(capsys, argv, message):
    code, report = invoke_json(capsys, "gen", *argv)
    assert code == 2
    assert report["error"]["type"] == "GroupError"
    assert report["error"]["message"] == message


@pytest.mark.parametrize("flags,recipe", [
    pytest.param(("--kind", "explicit", "--elements", "1,5,9"),
                 {"kind": "explicit", "elements": ["1", "5", "9"]},
                 id="explicit"),
    pytest.param(("--kind", "periodic", "--modulus", "3", "--residues", "0,2",
                  "--window", "30"),
                 {"kind": "periodic", "modulus": 3, "residues": ["0", "2"],
                  "window": 30}, id="periodic"),
    pytest.param(("--kind", "powers", "--base", "3", "--window", "500"),
                 {"kind": "powers", "base": 3, "window": 500}, id="powers"),
    pytest.param(("--kind", "ip", "--generators", "1,5,30"),
                 {"kind": "ip", "generators": ["1", "5", "30"]}, id="ip"),
    pytest.param(("--kind", "ip", "--rule", "powers", "--base", "3",
                  "--window", "400"),
                 {"kind": "ip", "rule": "powers", "base": "3", "window": 400},
                 id="ip-rule-powers"),
    pytest.param(("--kind", "pwip", "--generators", "1,5,30",
                  "--shifts", "0,100,-7"),
                 {"kind": "pwip", "generators": ["1", "5", "30"],
                  "shifts": ["0", "100", "-7"]}, id="pwip"),
    pytest.param(("--group", "z2sum:6", "--kind", "wn", "--support", "2"),
                 {"group": "z2sum:6", "kind": "wn", "support": 2}, id="wn"),
    pytest.param(("--kind", "cantor", "--levels", "3"),
                 {"kind": "cantor", "levels": 3}, id="cantor"),
])
def test_flag_recipe_matches_file_recipe(capsys, tmp_path, flags, recipe):
    spec = tmp_path / "recipe.json"
    spec.write_text(json.dumps({"group": "z", **recipe}))
    code, by_flags, err = invoke(capsys, "gen", *flags)
    assert (code, err) == (0, "")
    code, by_file, err = invoke(capsys, "gen", "--set", str(spec))
    assert (code, err) == (0, "")
    assert by_flags == by_file
    assert json.loads(by_flags)["size"] != "0"


@pytest.mark.parametrize("step", ["0", "-1"])
def test_density_step_must_be_positive(capsys, tmp_path, step):
    spec = tmp_path / "thirds.json"
    spec.write_text(json.dumps(
        {"group": "z", "kind": "periodic", "modulus": 3, "residues": ["0"]}))
    code, report = invoke_json(capsys, "density", "--set", str(spec),
                               "--nmax", "100", "--step=" + step)
    assert code == 2
    assert report["error"] == {"type": "GroupError",
                               "message": "step must be >= 1"}


def test_density_step_above_nmax(capsys, tmp_path):
    spec = tmp_path / "thirds.json"
    spec.write_text(json.dumps(
        {"group": "z", "kind": "periodic", "modulus": 3, "residues": ["0"]}))
    code, report = invoke_json(capsys, "density", "--set", str(spec),
                               "--nmax", "10", "--step", "20")
    assert code == 0
    assert report["profile"] == [
        {"n": "10", "count": "7", "ratio": repr(7 / 21)}]


@pytest.mark.parametrize("command, flag", [("sparse", "--xset"),
                                           ("scattered", "--ambient")])
def test_side_file_must_name_the_sample_group(capsys, tmp_path, command, flag):
    side = tmp_path / "side.json"
    argv = (command, "--group", "z", "--kind", "window", "--window", "64",
            "--budget", "small", flag, str(side))
    side.write_text(json.dumps({"group": "free:2", "kind": "window",
                                "window": 2}))
    code, report = invoke_json(capsys, *argv)
    assert code == 2
    assert report["error"]["type"] == "GroupError"
    assert "free:2" in report["error"]["message"]
    side.write_text(json.dumps({"group": " Z ", "kind": "window"}))
    code, report = invoke_json(capsys, *argv)
    assert code in (0, 1)
    assert report["kind"] != "error"


def test_closed_stdout_exits_141_silently():
    # the report (about 1.3 MB) outgrows the 64 KiB pipe buffer, so the
    # write fails once the reader has closed the pipe after 1 byte
    src = os.path.dirname(os.path.dirname(coarsesets.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "coarsesets.cli", "gen", "--group", "z",
         "--kind", "window", "--window", "50000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""
