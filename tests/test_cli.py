"""The CLI's tests.  Each runs the CLI through ``golden/cli_replay.py``,
by one of its two routes:

- ``replay`` runs ``cli.run`` in process: the ``cli.json`` replay, the
  answers of each subcommand, the refusals, the fuzz and the monkeypatched
  exits;
- ``replay_fresh`` runs a ``cli.json`` case as ``python -m hodgekit.cli``
  in a new interpreter under ``-X dev -W error``.  That covers what only a
  new process shows: the modules a subcommand loads, the same answer in
  another interpreter, no warning, and caps that refuse in bounded time.
"""

import copy
import functools
import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hodgekit import cli, cmtools, consequences
from hodgekit.cmtools import MAX_DEGREE
from hodgekit.numth import MR_EXACT_BOUND, VERIFY_MAX_K
from hodgekit.rootsys import MAX_RANK

from golden import cli_replay

PROFILE_N3 = {"weight": 1, "n": 3, "endo": {"type": "I", "deg_L": 1, "deg_F": 1, "q": 1}}
N3 = json.dumps(PROFILE_N3)
CASES = cli_replay.cases()
replay = cli_replay.replay


def test_validate_ok():
    code, out, _ = replay(["validate", "--profile", "@p.json"], files={"p.json": PROFILE_N3})
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_validate_negative_verdict():
    bad = {"weight": 1, "n": 3, "endo": {"type": "I", "deg_L": 4, "deg_F": 4, "q": 1}}
    code, out, _ = replay(["validate"], json.dumps(bad))
    assert code == 3
    out = json.loads(out)
    assert out["valid"] is False and out["violations"]


def test_malformed_json_has_position():
    code, _, err = replay(["validate"], "{oops")
    assert code == 2
    assert "line 1" in err and "column" in err


def test_unknown_field_is_bad_input():
    assert replay(["validate"], json.dumps({**PROFILE_N3, "bogus": 1}))[0] == 2


def test_realizable_exit_codes():
    assert replay(["realizable"], N3)[0] == 0
    exceptional = {
        "weight": 2,
        "n": 2,
        "endo": {"type": "I", "deg_L": 2, "deg_F": 2, "q": 1},
    }
    code, out, _ = replay(["realizable"], json.dumps(exceptional))
    assert code == 3
    assert json.loads(out)["case"]["index"] == 6
    invalid = {
        "weight": 1,
        "n": 3,
        "endo": {"type": "I", "deg_L": 4, "deg_F": 4, "q": 1},
    }
    assert replay(["realizable"], json.dumps(invalid))[0] == 4
    # unconfirmed (no trace data): exit 0, as classify answers it
    unconfirmed = json.dumps(
        {"weight": 1, "n": 4, "endo": {"type": "IV", "deg_L": 2, "deg_F": 1, "q": 1}}
    )
    code, out, _ = replay(["realizable"], unconfirmed)
    assert code == 0
    assert json.loads(out)["realizable"] is None
    assert replay(["classify"], unconfirmed)[0] == 0


def test_lefschetz_output():
    code, out, _ = replay(["lefschetz"], N3)
    assert code == 0
    data = json.loads(out)
    assert data["group"]["label"] == "Sp(6)"
    assert data["dim"] == 21 and data["rank"] == 3


def test_classify_round_trip_is_byte_identical():
    code, out, _ = replay(["classify"], N3)
    assert code == 0
    text = out.strip()
    reparsed = json.dumps(json.loads(text), separators=(",", ":"))
    assert reparsed == text


def test_classify_not_realizable_exit():
    exceptional = {
        "weight": 1,
        "n": 2,
        "endo": {"type": "III", "deg_L": 4, "deg_F": 1, "q": 2},
    }
    assert replay(["classify"], json.dumps(exceptional))[0] == 3


def test_classify_with_subfields():
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
    code, out, _ = replay(
        ["classify", "--profile", "@p.json", "--subfields", "@s.json"],
        files={"p.json": profile, "s.json": [{"deg_E": 2, "balanced": True}]},
    )
    assert code == 0
    data = json.loads(out)
    assert data["candidates"][0]["group"]["label"] == "SU_{L/E}"


def test_table3_flag():
    code, out, _ = replay(["classify", "--table3"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 13


def test_weights_commands():
    _, out, _ = replay(["weights", "dim", "A", "3", "0,1,0"])
    assert json.loads(out)["dim"] == 6
    _, out, _ = replay(["weights", "autodual", "C", "3", "1,0,0"])
    assert json.loads(out)["autoduality"] == "symplectic"
    _, out, _ = replay(["weights", "length", "C", "4", "1,0,0,0"])
    assert json.loads(out)["length"] == {"num": 1, "den": 1}
    code, out, _ = replay(["weights", "verify-table2", "--max-rank", "4"])
    assert code == 0
    assert json.loads(out)["ok"] is True
    _, out, _ = replay(["weights", "verify-table2", "--max-rank", "4", "--pretty"])
    assert "PASS A1" in out


def test_weights_bad_input():
    assert replay(["weights", "dim", "Z", "3", "0,1,0"])[0] == 2
    assert replay(["weights", "dim", "A", "3", "0,1"])[0] == 2


def test_cm_commands():
    _, out, _ = replay(["cm", "--group", "cyclic:6", "rank", "--theta", "0,1,2"])
    data = json.loads(out)
    assert (data["raw"], data["reduced"]) == (4, 3)
    code, out, _ = replay(["cm", "--group", "cyclic:6", "primitive", "--theta", "0,2,4"])
    assert code == 3
    assert json.loads(out)["primitive"] is False
    _, out, _ = replay(["cm", "--group", "cyclic:6", "scan"])
    data = json.loads(out)
    assert data["total"] == 8 and data["primitive"] == 6


def test_cm_explicit_perms():
    _, out, _ = replay(
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
    data = json.loads(out)
    assert (data["raw"], data["reduced"]) == (2, 1)


def test_cm_iota_override():
    # explicit iota equals the default for the cyclic model
    a = replay(["cm", "--group", "cyclic:6", "--iota", "(0 3)(1 4)(2 5)", "scan"])
    b = replay(["cm", "--group", "cyclic:6", "scan"])
    assert a[1] == b[1]


def test_numth_verify():
    code, out, _ = replay(["numth", "verify", "--k-max", "6"])
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["composite_witnesses"]["3"] == [5, 7]


def test_abelian_status():
    payload = {
        "dim": 6,
        "endo": {"type": "II", "deg_L": 4, "deg_F": 1, "q": 2},
        "subfields": [],
    }
    code, out, _ = replay(["abelian", "status"], json.dumps(payload))
    assert code == 0
    data = json.loads(out)
    assert data["murty_equal"] is True
    assert data["status"]["hc_all_powers"] == "proven"


def test_run_function_directly():
    code, out, _ = replay(["weights", "dim", "E", "7", "0,0,0,0,0,0,1"])
    assert code == 0
    assert json.loads(out)["dim"] == 56


@pytest.mark.parametrize("case", CASES)
def test_cli_golden_replays_in_process(case):
    code, out, err = cli_replay.replay_case(case)
    assert code == case["exit"], case["argv"]
    assert out == case["stdout"], case["argv"]
    # every case but the argparse usage errors pins its stderr
    assert err == case.get("stderr", err), case["argv"]


# --- A new interpreter: the pinned answer, a bounded footprint, no warning ---

IMPORT_ONLY = {"argv": None, "stdin": "", "files": {}, "exit": 0, "stdout": "", "stderr": ""}


def fresh(*argv, stdin=""):
    """Replay the cli.json case of this argv and stdin in a new interpreter,
    once per session, and check it against its pin: exit code, stdout and
    stderr, within replay_fresh's 30 s and under warnings as errors, and
    neither dataclasses nor fractions loaded (weight lengths are ints).
    Returns its stderr and the hodgekit modules it loaded.  With no argv
    the child only imports hodgekit."""
    return _fresh(argv, stdin)


@functools.cache  # keyed on (argv, stdin), so several tests share a process
def _fresh(argv, stdin):
    if not argv:
        case = IMPORT_ONLY
    else:
        (case,) = [c for c in CASES if c["argv"] == list(argv) and c["stdin"] == stdin]
    code, out, err, (modules, dataclasses, fractions) = cli_replay.replay_fresh(
        case["argv"], stdin, case["files"]
    )
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])
    assert not dataclasses
    assert not fractions
    return err, frozenset(modules)


def test_cm_scan_over_the_cap_is_bad_input():
    assert "SCAN_MAX_G" in fresh("cm", "--group", "cyclic:64", "scan")[0]


# each cap one step past it: a process refuses it before doing work that
# grows with the size, so a lost cap fails on the timeout and does not hang
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
    assert "MAX_RANK" in fresh(*args)[0]


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
    assert cap in fresh(*args)[0]


def test_determinism():
    # the output of another interpreter equals the pinned text, which
    # make_goldens.py recorded in its own process
    fresh("classify", "--table3")


def test_import_hodgekit_loads_no_submodule():
    assert fresh() == ("", {"hodgekit"})


def test_numth_verify_loads_numth_alone():
    _, modules = fresh("numth", "verify", "--k-max", "6")
    assert "numth" in modules
    assert modules <= {"hodgekit", "cli", "numth"}


def test_weights_loads_no_classifier_or_cm_engine():
    _, modules = fresh("weights", "dim", "A", "3", "0,1,0")
    assert "rootsys" in modules
    assert not modules & {"classifier", "core", "cmtools"}


def test_cm_rank_loads_no_classifier_or_root_systems():
    _, modules = fresh("cm", "--group", "cyclic:6", "rank", "--theta", "0,1,2")
    assert "cmtools" in modules
    assert not modules & {"classifier", "core", "rootsys"}


def test_classify_loads_no_verification_engine():
    _, modules = fresh("classify", stdin=N3)
    assert "classifier" in modules
    assert not modules & {"rootsys", "cmtools", "intlinalg"}


SUBCOMMANDS = [
    (["validate"], N3),
    (["realizable"], N3),
    (["lefschetz"], N3),
    (["classify"], N3),
    (["classify", "--table3"], ""),
    (["weights", "dim", "A", "3", "0,1,0"], ""),
    (["weights", "autodual", "A", "3", "0,1,0"], ""),
    (["weights", "length", "A", "3", "0,1,0"], ""),
    (["weights", "verify-table2", "--max-rank", "3"], ""),
    (["cm", "--group", "cyclic:6", "rank", "--theta", "0,1,2"], ""),
    (["cm", "--group", "cyclic:6", "primitive", "--theta", "0,1,2"], ""),
    (["cm", "--group", "cyclic:6", "scan"], ""),
    (["numth", "verify", "--k-max", "6"], ""),
    (["abelian", "status"], json.dumps({"dim": 6, "endo": PROFILE_N3["endo"]})),
]


@pytest.mark.parametrize(
    "args, stdin", SUBCOMMANDS, ids=[" ".join(args) for args, _ in SUBCOMMANDS]
)
def test_no_subcommand_loads_dataclasses_or_fractions(args, stdin):
    fresh(*args, stdin=stdin)


# --- In process: refusals name what they refuse -----------------------------


N3_ENDO = PROFILE_N3["endo"]
ABELIAN_II = {"dim": 6, "endo": {"type": "II", "deg_L": 4, "deg_F": 1, "q": 2}}
IV6_ENDO = {"type": "IV", "deg_L": 2, "deg_F": 1, "q": 1, "cm_traces": [[3, 3]]}
IV6_PROFILE = {"weight": 1, "n": 6, "endo": IV6_ENDO}
BALANCED = [{"deg_E": 2, "balanced": True}]
ABELIAN_IV6 = {"dim": 6, "endo": IV6_ENDO, "subfields": BALANCED}
IOTA6 = ["--iota", "(0 3)(1 4)(2 5)"]


def refused(argv, stdin="", files=None):
    """The stderr of a run that must exit 2 with nothing on stdout."""
    code, out, err = replay(argv, stdin, files)
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: ")
    return err


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


def test_cm_orbit_over_the_cap_is_bad_input(monkeypatch):
    monkeypatch.setattr(cmtools, "MAX_ORBIT", 31, raising=True)
    # Z2 wr S5 on two copies of 5 points: a type has 2^5 = 32 translates
    group = "perms:10:(0 1 2 3 4)(5 6 7 8 9);(0 1)(5 6);(0 5)"
    args = ["cm", "--group", group, "--iota", "(0 5)(1 6)(2 7)(3 8)(4 9)", "scan"]
    assert "MAX_ORBIT = 31" in refused(args)


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
def test_classify_rejects_badly_typed_subfields(entry, complaint):
    args = ["classify", "--profile", "@p.json", "--subfields", "@s.json"]
    assert complaint in refused(args, files={"p.json": IV6_PROFILE, "s.json": [entry]})


@pytest.mark.parametrize("dim", ["6", 6.0, True])
def test_abelian_rejects_a_non_integer_dim(dim):
    files = {"a.json": {"dim": dim, "endo": N3_ENDO}}
    err = refused(["abelian", "status", "--profile", "@a.json"], files=files)
    assert "dim must be an integer" in err


def test_numth_kmax_below_three_is_bad_input():
    assert "--k-max" in refused(["numth", "verify", "--k-max", "2"])


@pytest.mark.parametrize("max_rank", ["0", "-1", "-5"])
def test_verify_table2_max_rank_below_one_is_bad_input(max_rank):
    err = refused(["weights", "verify-table2", "--max-rank", max_rank])
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
def test_cm_theta_refuses_a_repeat_or_a_bad_entry(cmd, theta, err):
    group = ["--group", "perms:4:(0 1 2 3)", "--iota", "(0 2)(1 3)"]
    assert refused(["cm", *group, cmd, "--theta", theta]) == err


def test_n_beyond_the_primality_bound_is_bad_input():
    cap = 3_317_044_064_679_887_385_961_981
    files = {"p.json": {"weight": 1, "n": cap, "endo": N3_ENDO}}
    assert str(cap) in refused(["classify", "--profile", "@p.json"], files=files)
    files = {"a.json": {"dim": 2 * cap, "endo": N3_ENDO}}
    assert str(cap) in refused(["abelian", "status", "--profile", "@a.json"], files=files)


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
def test_abelian_rejects_a_bad_subfield_list_or_a_missing_field(data, complaint):
    assert complaint in refused(["abelian", "status"], json.dumps(data))


def test_abelian_status_rejects_a_balanced_flag_the_traces_contradict():
    data = {
        "dim": 6,
        "endo": {"type": "IV", "deg_L": 2, "deg_F": 1, "q": 1, "cm_traces": [[4, 2]]},
        "subfields": BALANCED,
    }
    err = refused(["abelian", "status"], json.dumps(data))
    assert "balanced flag contradicts the trace data" in err


@pytest.mark.parametrize("data", [ABELIAN_II, ABELIAN_IV6], ids=["II", "IV"])
def test_abelian_status_classifies_once(data, monkeypatch):
    calls = []
    classify = consequences.classify

    def counted(*args):
        calls.append(args)
        return classify(*args)

    monkeypatch.setattr(consequences, "classify", counted)
    code, _, _ = replay(["abelian", "status"], json.dumps(data))
    assert code == 0
    assert len(calls) == 1


# --- Every kind of outside input has one refusal, naming where it came from ---

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
def test_outside_input_is_refused_by_name(argv, stdin, named):
    """Each refusal exits 2 with nothing on stdout and names the field or
    the flag (with its text) that it refuses."""
    files = {"input.json": arg[1:] for arg in argv if arg.startswith("@")}
    argv = ["@input.json" if arg.startswith("@") else arg for arg in argv]
    assert named in refused(argv, json.dumps(stdin), files)


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
def test_a_number_past_the_int_limit_is_refused_by_name(argv, named):
    """JSON and argv name the input or the slot that holds the number, not
    the interpreter's setting that limits it, and echo none of its digits."""
    stdin, files = N3.replace('"n": 3', f'"n": {LONG}'), {}
    if "--subfields" in argv:  # a sound profile, the long number in a subfield
        argv = [*argv, "--profile", "@profile.json"]
        stdin, files = f'[{{"deg_E": {LONG}, "balanced": true}}]', {"profile.json": PROFILE_N3}
    err = refused(argv, stdin, files)
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


def _exits_as_documented(argv, stdin="", files=None):
    code, out, _ = replay(argv, stdin, files)
    assert code in (0, 2, 3, 4), (argv, stdin, code)
    if code == 2:
        assert out == "", (argv, stdin)


FUZZ = settings(
    max_examples=150,
    deadline=3000,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@FUZZ
@given(
    command=st.sampled_from(["validate", "realizable", "lefschetz", "classify"]),
    pretty=st.booleans(),
    profile=_inputs(PROFILES),
)
def test_fuzz_profile_commands(command, pretty, profile):
    _exits_as_documented([command] + ["--pretty"] * pretty, profile)


@FUZZ
@given(profile=_inputs(PROFILES), subfields=_inputs(SUBFIELD_LISTS), abelian=_inputs(ABELIANS))
def test_fuzz_subfield_and_abelian_input(profile, subfields, abelian):
    _exits_as_documented(["classify", "--subfields", "@s.json"], profile, {"s.json": subfields})
    _exits_as_documented(["abelian", "status"], abelian)


@FUZZ
@given(argv=ARGVS, pretty=st.booleans())
def test_fuzz_argv(argv, pretty):
    _exits_as_documented(argv + ["--pretty"] * pretty)


def _raising(exc):
    def command(args):
        raise exc

    return command


def test_a_broken_invariant_exits_4_with_its_message(monkeypatch):
    monkeypatch.setattr(cli, "_cmd_validate", _raising(AssertionError("pairs out of order")))
    assert replay(["validate"], N3) == (
        4,
        "",
        "internal invariant violation: pairs out of order\n",
    )


def test_a_closed_pipe_exits_0_quietly(monkeypatch):
    monkeypatch.setattr(cli, "_cmd_numth", _raising(BrokenPipeError()))
    assert replay(["numth", "verify", "--k-max", "3"]) == (0, "", "")
