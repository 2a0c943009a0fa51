import ast
import contextlib
import copy
import io
import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hodgekit import cli, cmtools
from hodgekit.cli import run
from hodgekit.cmtools import MAX_DEGREE, SCAN_MAX_G
from hodgekit.numth import MR_EXACT_BOUND, VERIFY_MAX_K
from hodgekit.rootsys import MAX_RANK

from golden import cli_replay

PROFILE_N3 = {"weight": 1, "n": 3, "endo": {"type": "I", "deg_L": 1, "deg_F": 1, "q": 1}}


def run_cli(args, stdin=None, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "hodgekit.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc


def test_validate_ok(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(PROFILE_N3))
    proc = run_cli(["validate", "--profile", str(path)])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True


def test_validate_negative_verdict():
    bad = {"weight": 1, "n": 3, "endo": {"type": "I", "deg_L": 4, "deg_F": 4, "q": 1}}
    proc = run_cli(["validate"], stdin=json.dumps(bad))
    assert proc.returncode == 3
    out = json.loads(proc.stdout)
    assert out["valid"] is False and out["violations"]


def test_malformed_json_has_position():
    proc = run_cli(["validate"], stdin="{oops")
    assert proc.returncode == 2
    assert "line 1" in proc.stderr and "column" in proc.stderr


def test_unknown_field_is_bad_input():
    data = dict(PROFILE_N3)
    data["bogus"] = 1
    proc = run_cli(["validate"], stdin=json.dumps(data))
    assert proc.returncode == 2


def test_realizable_exit_codes():
    proc = run_cli(["realizable"], stdin=json.dumps(PROFILE_N3))
    assert proc.returncode == 0
    exceptional = {
        "weight": 2,
        "n": 2,
        "endo": {"type": "I", "deg_L": 2, "deg_F": 2, "q": 1},
    }
    proc = run_cli(["realizable"], stdin=json.dumps(exceptional))
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["case"]["index"] == 6
    invalid = {
        "weight": 1,
        "n": 3,
        "endo": {"type": "I", "deg_L": 4, "deg_F": 4, "q": 1},
    }
    proc = run_cli(["realizable"], stdin=json.dumps(invalid))
    assert proc.returncode == 4
    # unconfirmed (no trace data): exit 0, as classify answers it
    unconfirmed = {
        "weight": 1,
        "n": 4,
        "endo": {"type": "IV", "deg_L": 2, "deg_F": 1, "q": 1},
    }
    proc = run_cli(["realizable"], stdin=json.dumps(unconfirmed))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["realizable"] is None
    assert run_cli(["classify"], stdin=json.dumps(unconfirmed)).returncode == 0


def test_lefschetz_output():
    proc = run_cli(["lefschetz"], stdin=json.dumps(PROFILE_N3))
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["group"]["label"] == "Sp(6)"
    assert data["dim"] == 21 and data["rank"] == 3


def test_classify_round_trip_is_byte_identical():
    proc = run_cli(["classify"], stdin=json.dumps(PROFILE_N3))
    assert proc.returncode == 0
    text = proc.stdout.strip()
    reparsed = json.dumps(json.loads(text), separators=(",", ":"))
    assert reparsed == text


def test_classify_not_realizable_exit():
    exceptional = {
        "weight": 1,
        "n": 2,
        "endo": {"type": "III", "deg_L": 4, "deg_F": 1, "q": 2},
    }
    proc = run_cli(["classify"], stdin=json.dumps(exceptional))
    assert proc.returncode == 3


def test_classify_with_subfields(tmp_path):
    profile = {
        "weight": 1,
        "n": 4,
        "endo": {
            "type": "IV",
            "deg_L": 8,
            "deg_F": 4,
            "q": 1,
            "cm_traces": [[1, 0], [0, 1], [1, 0], [0, 1]],
        },
    }
    subs = tmp_path / "subs.json"
    subs.write_text(json.dumps([{"deg_E": 2, "balanced": True}]))
    ppath = tmp_path / "p.json"
    ppath.write_text(json.dumps(profile))
    proc = run_cli(
        ["classify", "--profile", str(ppath), "--subfields", str(subs)]
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["candidates"][0]["group"]["label"] == "SU_{L/E}"


def test_table3_flag():
    proc = run_cli(["classify", "--table3"])
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)["rows"]
    assert len(rows) == 13


def test_weights_commands():
    proc = run_cli(["weights", "dim", "A", "3", "0,1,0"])
    assert json.loads(proc.stdout)["dim"] == 6
    proc = run_cli(["weights", "autodual", "C", "3", "1,0,0"])
    assert json.loads(proc.stdout)["autoduality"] == "symplectic"
    proc = run_cli(["weights", "length", "C", "4", "1,0,0,0"])
    assert json.loads(proc.stdout)["length"] == {"num": 1, "den": 1}
    proc = run_cli(["weights", "verify-table2", "--max-rank", "4"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
    proc = run_cli(["weights", "verify-table2", "--max-rank", "4", "--pretty"])
    assert "PASS A1" in proc.stdout


def test_weights_bad_input():
    proc = run_cli(["weights", "dim", "Z", "3", "0,1,0"])
    assert proc.returncode == 2
    proc = run_cli(["weights", "dim", "A", "3", "0,1"])
    assert proc.returncode == 2


def test_cm_commands():
    proc = run_cli(["cm", "--group", "cyclic:6", "rank", "--theta", "0,1,2"])
    data = json.loads(proc.stdout)
    assert (data["raw"], data["reduced"]) == (4, 3)
    proc = run_cli(["cm", "--group", "cyclic:6", "primitive", "--theta", "0,2,4"])
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["primitive"] is False
    proc = run_cli(["cm", "--group", "cyclic:6", "scan"])
    data = json.loads(proc.stdout)
    assert data["total"] == 8 and data["primitive"] == 6


def test_cm_explicit_perms():
    proc = run_cli(
        [
            "cm",
            "--group",
            "perms:6:(0 1 2 3 4 5)",
            "--iota",
            "(0 3)(1 4)(2 5)",
            "rank",
            "--theta",
            "0,2,4",
        ]
    )
    data = json.loads(proc.stdout)
    assert (data["raw"], data["reduced"]) == (2, 1)


def test_cm_scan_over_the_cap_is_bad_input():
    proc = run_cli(["cm", "--group", "cyclic:64", "scan"], timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "SCAN_MAX_G" in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["weights", "dim", "A", "1000000000", "1"],
        ["weights", "autodual", "D", str(MAX_RANK + 1), "1"],
        ["weights", "length", "B", str(MAX_RANK + 1), "1"],
        ["weights", "verify-table2", "--max-rank", str(MAX_RANK + 1)],
    ],
)
def test_weights_over_the_rank_cap_is_bad_input(args):
    proc = run_cli(args, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "MAX_RANK" in proc.stderr


@pytest.mark.parametrize(
    "args, cap",
    [
        (["numth", "verify", "--k-max", str(VERIFY_MAX_K + 1)], "VERIFY_MAX_K"),
        (["cm", "--group", f"cyclic:{2 * MAX_DEGREE}", "rank", "--theta", "0"], "MAX_DEGREE"),
        (["cm", "--group", f"dihedral:{MAX_DEGREE}", "primitive", "--theta", "0"], "MAX_DEGREE"),
        (["cm", "--group", f"abelian:{MAX_DEGREE},2", "scan"], "MAX_DEGREE"),
        (
            ["cm", "--group", f"perms:{MAX_DEGREE + 2}:(0 1)", "--iota", "(0 1)", "scan"],
            "MAX_DEGREE",
        ),
    ],
)
def test_numth_and_cm_over_their_caps_are_bad_input(args, cap):
    proc = run_cli(args, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert cap in proc.stderr


def test_cm_orbit_over_the_cap_is_bad_input(monkeypatch, capsys):
    monkeypatch.setattr(cmtools, "MAX_ORBIT", 31, raising=True)
    # Z2 wr S5 on two copies of 5 points: a type has 2^5 = 32 translates
    group = "perms:10:(0 1 2 3 4)(5 6 7 8 9);(0 1)(5 6);(0 5)"
    args = ["cm", "--group", group, "--iota", "(0 5)(1 6)(2 7)(3 8)(4 9)", "scan"]
    assert "MAX_ORBIT = 31" in run_bad_input(args, capsys)


def test_cm_iota_override():
    # explicit iota equals the default for the cyclic model
    a = run_cli(["cm", "--group", "cyclic:6", "--iota", "(0 3)(1 4)(2 5)", "scan"])
    b = run_cli(["cm", "--group", "cyclic:6", "scan"])
    assert a.stdout == b.stdout


def test_cycles():
    assert cli._cycles("(0 3)(1 4)(2 5)", 6, "--iota") == (3, 4, 5, 0, 1, 2)
    assert cli._cycles("id", 3, "--iota") == (0, 1, 2)
    assert cli._cycles("(0,1)", 2, "--iota") == (1, 0)
    with pytest.raises(ValueError, match="unbalanced cycle notation: '\\(0 1' in --iota"):
        cli._cycles("(0 1", 2, "--iota")
    with pytest.raises(ValueError, match="repeated point in cycles: .* in --iota"):
        cli._cycles("(0 1)(1 0)", 3, "--iota")
    # the degree cap is checked before a permutation is built
    with pytest.raises(ValueError, match=f"MAX_DEGREE = {MAX_DEGREE} for CM models in --iota"):
        cli._cycles("(0 1)", MAX_DEGREE + 2, "--iota")


def test_numth_verify():
    proc = run_cli(["numth", "verify", "--k-max", "6"])
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["ok"] is True
    assert data["composite_witnesses"]["3"] == [5, 7]


def test_abelian_status():
    payload = {
        "dim": 6,
        "endo": {"type": "II", "deg_L": 4, "deg_F": 1, "q": 2},
        "subfields": [],
    }
    proc = run_cli(["abelian", "status"], stdin=json.dumps(payload))
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["murty_equal"] is True
    assert data["status"]["hc_all_powers"] == "proven"


def test_run_function_directly(capsys):
    code = run(["weights", "dim", "E", "7", "0,0,0,0,0,0,1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 56


def test_determinism():
    a = run_cli(["classify", "--table3"])
    b = run_cli(["classify", "--table3"])
    assert a.stdout == b.stdout


@pytest.mark.parametrize("case", cli_replay.cases())
def test_cli_golden_replays_in_process(case):
    code, out, err = cli_replay.replay_case(case)
    assert code == case["exit"], case["argv"]
    assert out == case["stdout"], case["argv"]
    # every case but the argparse usage errors pins its stderr
    assert err == case.get("stderr", err), case["argv"]


def run_bad_input(args, capsys):
    """Run in process; the command must exit 2 with nothing on stdout."""
    code = run(args)
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    return captured.err


@pytest.mark.parametrize(
    "entry, complaint",
    [
        ({"deg_E": 2, "balanced": "false"}, "balanced must be a boolean"),
        ({"deg_E": 2, "balanced": True, "galois_L": "no"}, "galois_L"),
        ({"deg_E": 2.0, "balanced": True}, "deg_E must be an integer"),
        ({"deg_E": True, "balanced": True}, "deg_E must be an integer"),
        ({"balanced": True}, "missing required field 'deg_E'"),
        ("deg_E", "JSON object"),
        ({"deg_E": 2, "balanced": True, "galois_L": None}, "galois_L must be a boolean, got None"),
    ],
)
def test_classify_rejects_badly_typed_subfields(tmp_path, capsys, entry, complaint):
    profile = {
        "weight": 1,
        "n": 6,
        "endo": {"type": "IV", "deg_L": 2, "deg_F": 1, "q": 1, "cm_traces": [[3, 3]]},
    }
    ppath = tmp_path / "p.json"
    ppath.write_text(json.dumps(profile))
    spath = tmp_path / "subs.json"
    spath.write_text(json.dumps([entry]))
    args = ["classify", "--profile", str(ppath), "--subfields", str(spath)]
    assert complaint in run_bad_input(args, capsys)


@pytest.mark.parametrize("dim", ["6", 6.0, True])
def test_abelian_rejects_a_non_integer_dim(tmp_path, capsys, dim):
    path = tmp_path / "a.json"
    path.write_text(
        json.dumps({"dim": dim, "endo": {"type": "I", "deg_L": 1, "deg_F": 1, "q": 1}})
    )
    err = run_bad_input(["abelian", "status", "--profile", str(path)], capsys)
    assert "dim must be an integer" in err


def test_numth_kmax_below_three_is_bad_input(capsys):
    assert "--k-max" in run_bad_input(["numth", "verify", "--k-max", "2"], capsys)


@pytest.mark.parametrize("max_rank", ["0", "-1", "-5"])
def test_verify_table2_max_rank_below_one_is_bad_input(capsys, max_rank):
    err = run_bad_input(["weights", "verify-table2", "--max-rank", max_rank], capsys)
    assert err == f"error: --max-rank must be at least 1, got {max_rank}\n"


@pytest.mark.parametrize(
    "cmd, theta, err",
    [
        ("rank", "0,1,1", "error: repeated embedding 1 in --theta\n"),
        ("primitive", "1,0,1", "error: repeated embedding 1 in --theta\n"),
        ("rank", "0,,1", "error: bad embeddings '0,,1' in --theta\n"),
        ("primitive", "0,x", "error: bad embeddings '0,x' in --theta\n"),
    ],
)
def test_cm_theta_refuses_a_repeat_or_a_bad_entry(capsys, cmd, theta, err):
    group = ["--group", "perms:4:(0 1 2 3)", "--iota", "(0 2)(1 3)"]
    assert run_bad_input(["cm", *group, cmd, "--theta", theta], capsys) == err


# --- Import footprint: a one-shot process loads only its subcommand's engine ---

# Runs the CLI as ``python -m hodgekit.cli`` does (or, with no arguments,
# only ``import hodgekit``), then reports on stderr its exit code, the
# ``hodgekit`` modules loaded, whether ``dataclasses`` (or ``inspect``, which
# it imports) is, and whether ``fractions`` is.
FOOTPRINT = """
import sys
code = 0
if len(sys.argv) > 1:
    import runpy
    try:
        runpy.run_module("hodgekit.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:
    import hodgekit
loaded = (
    code,
    sorted(m for m in sys.modules if m.split(".")[0] == "hodgekit"),
    "dataclasses" in sys.modules or "inspect" in sys.modules,
    "fractions" in sys.modules,
)
sys.stderr.write("\\n" + repr(loaded))
"""


def footprint(args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, *args],
        input=stdin,
        capture_output=True,
        text=True,
    )
    code, modules, dataclasses, fractions = ast.literal_eval(proc.stderr.splitlines()[-1])
    assert code == 0, proc.stderr
    return {m.removeprefix("hodgekit.") for m in modules}, dataclasses, fractions


def test_import_hodgekit_loads_no_submodule():
    assert footprint([]) == ({"hodgekit"}, False, False)


def test_numth_verify_loads_numth_alone():
    modules, dataclasses, _ = footprint(["numth", "verify", "--k-max", "6"])
    assert "numth" in modules
    assert modules <= {"hodgekit", "cli", "numth"}
    assert not dataclasses


def test_weights_loads_no_classifier_or_cm_engine():
    modules, _, _ = footprint(["weights", "dim", "A", "3", "0,1,0"])
    assert "rootsys" in modules
    assert not modules & {"classifier", "core", "cmtools"}


def test_cm_rank_loads_no_classifier_or_root_systems():
    modules, _, _ = footprint(["cm", "--group", "cyclic:6", "rank", "--theta", "0,1,2"])
    assert "cmtools" in modules
    assert not modules & {"classifier", "core", "rootsys"}


def test_classify_loads_no_verification_engine():
    modules, _, fractions = footprint(["classify"], stdin=json.dumps(PROFILE_N3))
    assert "classifier" in modules
    assert not modules & {"rootsys", "cmtools", "intlinalg"}
    assert not fractions


ABELIAN_6 = {"dim": 6, "endo": PROFILE_N3["endo"]}


SUBCOMMANDS = [
    (["validate"], PROFILE_N3),
    (["realizable"], PROFILE_N3),
    (["lefschetz"], PROFILE_N3),
    (["classify"], PROFILE_N3),
    (["classify", "--table3"], None),
    (["weights", "dim", "A", "3", "0,1,0"], None),
    (["weights", "autodual", "A", "3", "0,1,0"], None),
    (["weights", "length", "A", "3", "0,1,0"], None),
    (["weights", "verify-table2", "--max-rank", "3"], None),
    (["cm", "--group", "cyclic:6", "rank", "--theta", "0,1,2"], None),
    (["cm", "--group", "cyclic:6", "primitive", "--theta", "0,1,2"], None),
    (["cm", "--group", "cyclic:6", "scan"], None),
    (["numth", "verify", "--k-max", "6"], None),
    (["abelian", "status"], ABELIAN_6),
]


@pytest.mark.parametrize(
    "args, stdin", SUBCOMMANDS, ids=[" ".join(args) for args, _ in SUBCOMMANDS]
)
def test_no_subcommand_loads_dataclasses_or_fractions(args, stdin):
    # weight lengths are ints, so not even `weights length` needs fractions
    _, dataclasses, fractions = footprint(args, stdin and json.dumps(stdin))
    assert not dataclasses
    assert not fractions


def test_n_beyond_the_primality_bound_is_bad_input(tmp_path, capsys):
    cap = 3_317_044_064_679_887_385_961_981
    endo = {"type": "I", "deg_L": 1, "deg_F": 1, "q": 1}
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"weight": 1, "n": cap, "endo": endo}))
    assert str(cap) in run_bad_input(["classify", "--profile", str(path)], capsys)
    path.write_text(json.dumps({"dim": 2 * cap, "endo": endo}))
    err = run_bad_input(["abelian", "status", "--profile", str(path)], capsys)
    assert str(cap) in err


ABELIAN_II = {"dim": 6, "endo": {"type": "II", "deg_L": 4, "deg_F": 1, "q": 2}}


@pytest.mark.parametrize(
    "data, complaint",
    [
        ({**ABELIAN_II, "subfields": 5}, "subfields must be a JSON list"),
        ({**ABELIAN_II, "subfields": "ab"}, "subfields must be a JSON list"),
        ({**ABELIAN_II, "subfields": None}, "subfields must be a JSON list"),
        ({"endo": ABELIAN_II["endo"]}, "dim must be an integer"),
        ({"dim": 6}, "endo must be a JSON object"),
    ],
)
def test_abelian_rejects_a_bad_subfield_list_or_a_missing_field(
    data, complaint, capsys, monkeypatch
):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(data)))
    assert complaint in run_bad_input(["abelian", "status"], capsys)


def test_abelian_status_rejects_a_balanced_flag_the_traces_contradict(
    capsys, monkeypatch
):
    data = {
        "dim": 6,
        "endo": {"type": "IV", "deg_L": 2, "deg_F": 1, "q": 1, "cm_traces": [[4, 2]]},
        "subfields": [{"deg_E": 2, "balanced": True}],
    }
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(data)))
    err = run_bad_input(["abelian", "status"], capsys)
    assert "balanced flag contradicts the trace data" in err


# --- Every kind of outside input has one refusal, naming where it came from ---

N3_ENDO = PROFILE_N3["endo"]
IV6_ENDO = {"type": "IV", "deg_L": 2, "deg_F": 1, "q": 1, "cm_traces": [[3, 3]]}
IV6_PROFILE = {"weight": 1, "n": 6, "endo": IV6_ENDO}
IOTA6 = ["--iota", "(0 3)(1 4)(2 5)"]

# int()'s literal forms that an argv number must not take
INT_LITERALS = ["1_0", "+6", "\u0666", " 6"]
# a JSON text nested far past any interpreter's recursion limit, as a file
DEEP = "@" + "[" * 100_000 + "]" * 100_000

# (argv, the JSON value on stdin, the text the refusal must contain); an
# argument "@text" stands for the path of a file that holds text
REFUSALS = [
    # profile, endo, subfield and abelian objects
    (["validate"], [PROFILE_N3], "profile must be a JSON object"),
    (["validate"], {**PROFILE_N3, "x": 1}, "unknown profile fields: ['x']"),
    (["validate"], {"weight": 1, "n": 3}, "profile is missing required field 'endo'"),
    (["validate"], {**PROFILE_N3, "endo": [N3_ENDO]}, "endo must be a JSON object"),
    (["validate"], {**PROFILE_N3, "endo": {**N3_ENDO, "x": 1}}, "unknown endo fields: ['x']"),
    (
        ["validate"],
        {**PROFILE_N3, "endo": {"type": "I", "deg_L": 1, "deg_F": 1}},
        "endo is missing required field 'q'",
    ),
    (["validate"], {**PROFILE_N3, "endo": {**N3_ENDO, "type": 1}}, "type must be a string, got 1"),
    (["classify", "--subfields", "@[2]"], IV6_PROFILE, "subfield must be a JSON object"),
    (
        ["classify", "--subfields", '@[{"deg_E": 2, "balanced": true, "x": 1}]'],
        IV6_PROFILE,
        "unknown subfield fields: ['x']",
    ),
    (
        ["classify", "--subfields", '@[{"deg_E": 2}]'],
        IV6_PROFILE,
        "subfield is missing required field 'balanced'",
    ),
    (["abelian", "status"], [ABELIAN_II], "abelian profile must be a JSON object"),
    (["abelian", "status"], {**ABELIAN_II, "x": 1}, "unknown abelian profile fields: ['x']"),
    (["abelian", "status"], {"endo": ABELIAN_II["endo"]}, "dim must be an integer, got None"),
    (["abelian", "status"], {"dim": 6}, "endo must be a JSON object"),
    # every number in argv
    (["cm", "--group", "cyclic:", "scan"], None, "bad numbers '' in --group 'cyclic:'"),
    (["cm", "--group", "cyclic:6.0", "scan"], None, "in --group 'cyclic:6.0'"),
    (["cm", "--group", "cyclic:6,8", "scan"], None, "in --group 'cyclic:6,8'"),
    (["cm", "--group", "dihedral:", "scan"], None, "in --group 'dihedral:'"),
    (["cm", "--group", "dihedral:a", "scan"], None, "in --group 'dihedral:a'"),
    (["cm", "--group", "abelian:2,,2", "scan"], None, "in --group 'abelian:2,,2'"),
    (["cm", "--group", "abelian:2,x", "scan"], None, "in --group 'abelian:2,x'"),
    (["cm", "--group", "perms::(0 1)", *IOTA6, "scan"], None, "in --group 'perms::(0 1)'"),
    (["cm", "--group", "perms:x:(0 1)", *IOTA6, "scan"], None, "in --group 'perms:x:(0 1)'"),
    (["cm", "--group", "perms:6", *IOTA6, "scan"], None, "no generator list in --group 'perms:6'"),
    (["cm", "--group", "cyclic:6", "--iota", "(0 a)", "scan"], None, "bad cycle chunk '(0 a)'"),
    (["cm", "--group", "cyclic:6", "--iota", "(0 +3)(1 4)(2 5)", "scan"], None, "'(0 +3)'"),
    (["cm", "--group", "cyclic:6", "rank", "--theta", "0,1.5"], None, "in --theta"),
    (["weights", "dim", "A", "3", "0,,0"], None, "bad weight coordinates '0,,0'"),
    # an argv number is ASCII -?[0-9]+: none of int()'s other literal forms
    (["cm", "--group", "cyclic:0_6", "rank", "--theta", "0,1,2"], None, "'0_6' in --group"),
    (["cm", "--group", "cyclic:+6", "rank", "--theta", "0,1,2"], None, "'+6' in --group"),
    (["cm", "--group", "cyclic: 6", "rank", "--theta", "0,1,2"], None, "' 6' in --group"),
    (["cm", "--group", "cyclic:\u0666", "scan"], None, "in --group 'cyclic:\u0666'"),
    (
        ["cm", "--group", "perms:4:(\u0660 1 2 3)", "--iota", "(0 2)(1 3)", "scan"],
        None,
        "in --group 'perms:4:(\u0660 1 2 3)'",
    ),
    (["cm", "--group", "cyclic:6", "--iota", "(\u0660 3)(1 4)(2 5)", "scan"], None, "in --iota"),
    (["cm", "--group", "cyclic:6", "rank", "--theta", "0,1_0,+2"], None, "'0,1_0,+2' in --theta"),
    (["weights", "dim", "A", "2", "+1,0"], None, "bad weight coordinates '+1,0'"),
    # the three argv numbers that argparse used to read with int()
    *[
        (argv, None, f"{slot} must be an integer, got {text!r}")
        for text in INT_LITERALS
        for argv, slot in (
            (["numth", "verify", "--k-max", text], "--k-max"),
            (["weights", "verify-table2", "--max-rank", text], "--max-rank"),
            (["weights", "dim", "A", text, "1,0,0"], "rank"),
        )
    ],
    # coordinates with a leading minus are coordinates, not an option
    (["weights", "dim", "A", "2", "-1,0"], None, "dominant weight, got (-1, 0)"),
    # JSON nested past the parser's recursion limit, in every JSON slot
    *[
        (argv, IV6_PROFILE, "nests too deeply")
        for argv in (
            ["validate", "--profile", DEEP],
            ["realizable", "--profile", DEEP],
            ["lefschetz", "--profile", DEEP],
            ["classify", "--profile", DEEP],
            ["classify", "--subfields", DEEP],
            ["abelian", "status", "--profile", DEEP],
        )
    ],
]


@pytest.mark.parametrize("argv, stdin, named", REFUSALS)
def test_outside_input_is_refused_by_name(argv, stdin, named, tmp_path, capsys, monkeypatch):
    """Each refusal exits 2 with nothing on stdout and names the field or
    the flag (with its text) that it refuses."""
    path = tmp_path / "input.json"
    for arg in argv:
        if arg.startswith("@"):
            path.write_text(arg[1:])
    argv = [str(path) if arg.startswith("@") else arg for arg in argv]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin)))
    assert named in run_bad_input(argv, capsys)


# a numeral one digit past the interpreter's limit on reading an int
LIMIT = sys.get_int_max_str_digits()
LONG = "1" * (LIMIT + 1)


@pytest.mark.parametrize(
    "argv, named",
    [
        (["classify"], "JSON in <stdin>"),
        (["classify", "--subfields", "-"], "JSON in <stdin>"),
        (["abelian", "status"], "JSON in <stdin>"),
        (["numth", "verify", "--k-max", LONG], "error: --k-max: "),
        (["cm", "--group", f"cyclic:{LONG}", "scan"], "error: --group: "),
        (["weights", "dim", "A", "2", f"{LONG},0"], "error: weight coordinates: "),
        (["cm", "--group", "cyclic:6", "--iota", f"(0 {LONG})", "scan"], "error: cycle entry: "),
        (
            ["cm", "--group", f"perms:6:(0 {LONG})", "--iota", "(0 3)(1 4)(2 5)", "scan"],
            f"error: cycle entry: a number of more than {LIMIT} digits in --group\n",
        ),
        (["cm", "--group", "cyclic:6", "rank", "--theta", f"0,1,{LONG}"], "error: --theta: "),
        (["weights", "dim", "A", LONG, "0"], "error: rank: "),
    ],
    ids=[
        "profile", "subfields", "abelian", "k-max", "group", "coords", "iota", "perms",
        "theta", "rank",
    ],
)
def test_a_number_past_the_int_limit_is_refused_by_name(
    argv, named, tmp_path, capsys, monkeypatch
):
    """JSON and argv name the input or the slot that holds the number, not
    the interpreter's setting that limits it, and echo none of its digits."""
    stdin = json.dumps(PROFILE_N3).replace('"n": 3', f'"n": {LONG}')
    if "--subfields" in argv:  # a sound profile, the long number in a subfield
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(PROFILE_N3))
        argv = [*argv, "--profile", str(path)]
        stdin = f'[{{"deg_E": {LONG}, "balanced": true}}]'
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    err = run_bad_input(argv, capsys)
    assert named in err
    assert f"a number of more than {LIMIT} digits" in err
    assert "set_int_max_str_digits" not in err
    assert len(err) < 200


# --- Exit-code fuzz: every input ends in exit 0/2/3/4, stdout empty on 2 ---


def _sizes(cap):
    """A size that is small or just above the cap.  Nothing further above:
    should a cap be lost, these inputs stay affordable in time and memory."""
    return st.integers(-2, 16) | st.sampled_from([cap + 1, cap + 2])


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
BALANCED = [{"deg_E": 2, "balanced": True}]
ENDO_FIELDS = ["type", "deg_L", "deg_F", "q", "cm_traces", "disc_one", "extra"]
# (valid inputs, the field paths a mutation may drop or replace)
PROFILES = (
    [
        PROFILE_N3,
        {"weight": 2, "n": 4, "endo": {"type": "I", "deg_L": 1, "deg_F": 1, "q": 1}},
        {"weight": 1, "n": 6, "endo": IV6_ENDO},
        {"weight": 1, "n": 2, "endo": {"type": "III", "deg_L": 4, "deg_F": 1, "q": 2}},
    ],
    [("weight",), ("n",), ("endo",), ("extra",)] + [("endo", k) for k in ENDO_FIELDS],
)
SUBFIELD_LISTS = (
    [BALANCED, [{"deg_E": 2, "balanced": False, "galois_L": True}]],
    [(), (0,), (1,)] + [(0, k) for k in ("deg_E", "balanced", "galois_L", "extra")],
)
ABELIANS = (
    [ABELIAN_II, {"dim": 6, "endo": IV6_ENDO, "subfields": BALANCED}],
    [("dim",), ("endo",), ("subfields",), ("extra",), ("endo", "deg_L")]
    + [("subfields", 0), ("subfields", 0, "deg_E")],
)


@st.composite
def _near_valid(draw, spec):
    """A valid input with up to three of its fields dropped, added or
    replaced by an arbitrary JSON value or a size."""
    bases, paths = spec
    data = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(paths))
        value = draw(st.none() | JSON_VALUES | _sizes(MR_EXACT_BOUND))
        if not path:
            data = value
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key] if _holds(parent, key) else None
        if isinstance(parent, dict) and value is None:
            parent.pop(path[-1], None)
        elif isinstance(parent, dict) or _holds(parent, path[-1]):
            parent[path[-1]] = value
    return data


def _holds(container, key) -> bool:
    if isinstance(container, dict):
        return key in container
    return isinstance(container, list) and isinstance(key, int) and key < len(container)


# JSON_VALUES are Python values that json.dumps must write, and the
# writer recurses too; so texts nested up to far past the reader's
# recursion limit are drawn as text
DEEP_JSON = st.integers(1, 100_000).map(lambda depth: "[" * depth + "]" * depth)


def _inputs(spec):
    return (
        _near_valid(spec).map(json.dumps)
        | JSON_VALUES.map(json.dumps)
        | DEEP_JSON
        | st.text(max_size=12)
    )


_group = (
    st.tuples(st.sampled_from(["cyclic", "dihedral"]), _sizes(MAX_DEGREE)).map(
        lambda t: f"{t[0]}:{t[1]}"
    )
    | st.lists(st.integers(-1, 4), min_size=1, max_size=3).map(
        lambda dims: "abelian:" + ",".join(map(str, dims))
    )
    | st.just(f"abelian:{MAX_DEGREE},2")
    | st.tuples(_sizes(MAX_DEGREE), st.text("(0123456789 );", max_size=16)).map(
        lambda t: f"perms:{t[0]}:{t[1]}"
    )
    | st.text(max_size=8)
)
_cycles = st.sampled_from(["(0 1)", "(0 3)(1 4)(2 5)", "(0 4)(1 5)(2 6)(3 7)", "id", "(0"])




@st.composite
def _wreath_group(draw):
    """A perms: group on two copies of k points whose generators commute
    with swapping the copies, so it lies in Z2 wr S_k.  No engine builds
    the group, so Z2 wr S_8 (order 10,321,920) is answered: a type has at
    most 2^8 translates.  k stops at 8 to keep each example fast."""
    k = draw(st.integers(1, 8))

    def doubled(cycle):
        return "".join(f"({' '.join(str(x + c) for x in cycle)})" for c in (0, k))

    pool = [doubled(range(k)), doubled([0, 1]), doubled([0, 1, 2]), f"(0 {k})"]
    gens = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    iota = "".join(f"({i} {i + k})" for i in range(k))
    return f"perms:{2 * k}:{';'.join(gens)}", iota


@st.composite
def _cm_argv(draw):
    g = draw(st.integers(1, 8))
    group, iota = draw(
        st.tuples(
            st.sampled_from([f"cyclic:{2 * g}", f"dihedral:{g}"]) | _group,
            st.none() | _cycles,
        )
        | _wreath_group()
    )
    cmd = draw(st.sampled_from([["scan"], ["rank"], ["rank", "--invariants"], ["primitive"]]))
    theta = draw(
        st.lists(st.integers(-1, 2 * g + 1), min_size=g, max_size=g, unique=True)
        | st.lists(st.integers(-1, 17), max_size=9)
    )
    argv = ["cm", "--group", group] + ["--iota", iota] * (iota is not None) + cmd
    return argv + ["--theta", ",".join(map(str, theta))] * (cmd != ["scan"])


ARGVS = st.one_of(
    st.tuples(
        st.just("weights"),
        st.sampled_from(["dim", "autodual", "length"]),
        st.sampled_from(["A", "b", "C", "D", "E", "Z"]),
        _sizes(MAX_RANK).map(str) | st.sampled_from(INT_LITERALS),
        st.lists(st.integers(-1, 2), max_size=17).map(lambda xs: ",".join(map(str, xs))),
    ).map(list),
    # ranks up to 4 only: verify-table2 checks every system up to the rank
    (
        (st.integers(-1, 4) | st.sampled_from([MAX_RANK + 1, MAX_RANK + 2])).map(str)
        | st.sampled_from(INT_LITERALS)
    ).map(lambda r: ["weights", "verify-table2", "--max-rank", r]),
    _cm_argv(),
    # one step over the cap only: each step doubles the sieve's time and memory
    (
        (st.integers(-2, 16) | st.just(VERIFY_MAX_K + 1)).map(str)
        | st.sampled_from(INT_LITERALS)
    ).map(lambda k: ["numth", "verify", "--k-max", k]),
    st.lists(
        st.sampled_from(
            ["validate", "classify", "weights", "cm", "numth", "abelian", "status",
             "--pretty", "--table3", "--group", "--k-max", "verify", "scan", "-"]
        )
        | st.integers(-2, 16).map(str)
        | st.text(max_size=6),
        max_size=5,
    ),
)


def _run_checked(argv, stdin=""):
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
    finally:
        sys.stdin = saved
    assert code in (0, 2, 3, 4), (argv, stdin, code)
    if code == 2:
        assert out.getvalue() == "", (argv, stdin)


FUZZ = settings(
    max_examples=150,
    deadline=3000,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@FUZZ
@given(
    command=st.sampled_from(["validate", "realizable", "lefschetz", "classify"]),
    pretty=st.booleans(),
    profile=_inputs(PROFILES),
)
def test_fuzz_profile_commands(command, pretty, profile):
    _run_checked([command] + ["--pretty"] * pretty, profile)


@FUZZ
@given(profile=_inputs(PROFILES), subfields=_inputs(SUBFIELD_LISTS), abelian=_inputs(ABELIANS))
def test_fuzz_subfield_and_abelian_input(tmp_path, profile, subfields, abelian):
    path = tmp_path / "subfields.json"
    path.write_text(subfields)
    _run_checked(["classify", "--subfields", str(path)], profile)
    _run_checked(["abelian", "status"], abelian)


@FUZZ
@given(argv=ARGVS, pretty=st.booleans())
def test_fuzz_argv(argv, pretty):
    _run_checked(argv + ["--pretty"] * pretty)


def _raising(exc):
    def command(args):
        raise exc

    return command


def test_a_broken_invariant_exits_4_with_its_message(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_cmd_validate", _raising(AssertionError("pairs out of order")))
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(PROFILE_N3)))
    assert run(["validate"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal invariant violation: pairs out of order\n"


def test_a_closed_pipe_exits_0_quietly(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_cmd_numth", _raising(BrokenPipeError()))
    assert run(["numth", "verify", "--k-max", "3"]) == 0
    assert capsys.readouterr() == ("", "")
