import contextlib
import copy
import io
import json
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hodgekit import cmtools
from hodgekit.cli import run
from hodgekit.cmtools import MAX_DEGREE, SCAN_MAX_G
from hodgekit.numth import MR_EXACT_BOUND, VERIFY_MAX_K
from hodgekit.rootsys import MAX_RANK

GOLDEN_CLI = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "cli.json").read_text()
)["cases"]
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


def test_cm_group_order_over_the_cap_is_bad_input(monkeypatch, capsys):
    monkeypatch.setattr(cmtools, "MAX_GROUP_ORDER", 1000, raising=True)
    # Z2 wr S5 on two copies of 5 points, order 3840
    group = "perms:10:(0 1 2 3 4)(5 6 7 8 9);(0 1)(5 6);(0 5)"
    args = ["cm", "--group", group, "--iota", "(0 5)(1 6)(2 7)(3 8)(4 9)", "scan"]
    assert "MAX_GROUP_ORDER = 1000" in run_bad_input(args, capsys)


def test_cm_iota_override():
    # explicit iota equals the default for the cyclic model
    a = run_cli(["cm", "--group", "cyclic:6", "--iota", "(0 3)(1 4)(2 5)", "scan"])
    b = run_cli(["cm", "--group", "cyclic:6", "scan"])
    assert a.stdout == b.stdout


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


@pytest.mark.parametrize("case", GOLDEN_CLI)
def test_cli_golden_replays_in_process(case, tmp_path, monkeypatch, capsys):
    for name, content in case["files"].items():
        (tmp_path / name).write_text(json.dumps(content))
    argv = [str(tmp_path / a[1:]) if a[:1] == "@" else a for a in case["argv"]]
    monkeypatch.setattr(sys, "stdin", io.StringIO(case["stdin"]))
    assert run(argv) == case["exit"], case["argv"]
    assert capsys.readouterr().out == case["stdout"], case["argv"]


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
IV6_ENDO = {"type": "IV", "deg_L": 2, "deg_F": 1, "q": 1, "cm_traces": [[3, 3]]}
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


def _inputs(spec):
    return (
        _near_valid(spec).map(json.dumps)
        | JSON_VALUES.map(json.dumps)
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
    with swapping the copies, so it lies in Z2 wr S_k.  k stops at 7,
    where Z2 wr S_7 (order 645,120) is over MAX_GROUP_ORDER."""
    k = draw(st.integers(1, 7))

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
        _sizes(MAX_RANK).map(str),
        st.lists(st.integers(-1, 2), max_size=17).map(lambda xs: ",".join(map(str, xs))),
    ).map(list),
    # ranks up to 4 only: verify-table2 checks every system up to the rank
    (st.integers(-1, 4) | st.sampled_from([MAX_RANK + 1, MAX_RANK + 2])).map(
        lambda r: ["weights", "verify-table2", "--max-rank", str(r)]
    ),
    _cm_argv(),
    # one step over the cap only: each step doubles the sieve's time and memory
    (st.integers(-2, 16) | st.just(VERIFY_MAX_K + 1)).map(
        lambda k: ["numth", "verify", "--k-max", str(k)]
    ),
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
