import json
import subprocess
import sys

import pytest

from hodgekit.cli import run
from hodgekit.rootsys import MAX_RANK

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
