"""Regenerate the golden files.

Each golden is produced by the package but cross-checked here, field by
field, against hand-derived expectations before being written, so a
regression in the package cannot silently rewrite the goldens with
wrong content.  Run from the repository root:

    python tests/golden/make_goldens.py
"""

from __future__ import annotations

import json
import pathlib
import random
import sys

TESTS = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from golden.cli_replay import replay
from hodgekit.classifier import SubfieldDescriptor, classify, table3
from hodgekit.cmtools import MAX_DEGREE
from hodgekit.core import EndomorphismDescriptor, profile_to_json
from hodgekit.consequences import AbelianProfile, hodge_status, murty_equal
from hodgekit.lefschetz import lefschetz_group
from hodgekit.numth import MR_EXACT_BOUND, VERIFY_MAX_K
from hodgekit.realizability import realizable
from hodgekit.rootsys import MAX_RANK
from universe import prof

HERE = pathlib.Path(__file__).resolve().parent


def write(name, payload):
    path = HERE / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    print(f"wrote {path.name}")


# --- Table 1: the eight (type, parity) cells ---------------------------

TABLE1_EXPECT = {
    ("I", "odd"): ("Sp", 3, 2, "R_{F/Q}Sp(_FV)"),
    ("I", "even"): ("SO", 3, 2, "R_{F/Q}SO(_FV)"),
    ("II", "odd"): ("Sp(B)", 2, 1, "Sp(B,-)"),
    ("II", "even"): ("O+(B)", 2, 1, "O+(B,-)"),
    ("III", "odd"): ("O+(B)", 2, 1, "O+(B,-)"),
    ("III", "even"): ("Sp(B)", 2, 1, "Sp(B,-)"),
    ("IV", "odd"): ("U(B)", 2, 2, "R_{F/Q}U(B,-)"),
    ("IV", "even"): ("U(B)", 2, 2, "R_{F/Q}U(B,-)"),
}


def make_table1():
    cells = []
    for t, parity in TABLE1_EXPECT:
        w = 1 if parity == "odd" else 2
        if t == "I":
            p = prof("I", 2, 2, 1, w=w, n=6)
        elif t in ("II", "III"):
            p = prof(t, 4, 1, 2, w=w, n=4, disc=False)
        else:
            p = prof("IV", 4, 2, 1, w=w, n=4, traces=((2, 0), (1, 1)))
        group = lefschetz_group(p)
        fam, param, base, label = TABLE1_EXPECT[(t, parity)]
        assert (group.family, group.param, group.base_degree) == (fam, param, base)
        assert group.label() == label
        cells.append(
            {
                "albert_type": t,
                "parity": parity,
                "profile": profile_to_json(p),
                "group": group.to_json(),
            }
        )
    write("table1.json", {"cells": cells})


# --- Table 3: the 13-row n=4 grid ---------------------------------------

TABLE3_EXPECT = [
    ("I", 1, "Sp(8)", "SO(8)", True),
    ("I", 1, "SL(2)xSO(4)", "SO(7)", False),
    ("I", 2, "R_{F/Q}Sp(_FV)", "R_{F/Q}SO(_FV)", True),
    ("I", 4, "R_{F/Q}Sp(_FV)", None, True),
    ("II", 4, "Sp(B,-)", "O+(B,-)", True),
    ("II", 8, "R_{F/Q}Sp(L,-)", None, True),
    ("III", 4, "O+(B,-)", "Sp(B,-)", True),
    ("III", 8, None, "R_{F/Q}Sp(L,-)", True),
    ("IV", 2, "U(B,-)", "U(B,-)", True),
    ("IV", 2, "SU(B,-)", "SU(B,-)", False),
    ("IV", 4, "R_{F/Q}U(B,-)", "R_{F/Q}U(B,-)", True),
    ("IV", 8, "U_L", "U_L", True),
    ("IV", 8, "SU_{L/E}", "SU_{L/E}", False),
]


def make_table3():
    rows = table3()
    assert len(rows) == 13
    for row, (t, dL, odd, even, lef) in zip(rows, TABLE3_EXPECT):
        assert row["albert_type"] == t and row["deg_L"] == dL
        assert (row["odd"] or {}).get("label") == odd
        assert (row["even"] or {}).get("label") == even
        assert row["equals_lefschetz"] is lef
    write("table3.json", {"rows": rows})


# --- The exclusion catalog suite ----------------------------------------

# (profile, expected case index or None); every entry here is decidable.
TOTARO = {
    "odd_exceptional": [
        (prof("III", 4, 1, 2, w=1, n=2), 1),
        (prof("III", 4, 1, 2, w=1, n=4, disc=True), 2),
        (prof("IV", 4, 2, 1, w=1, n=4, traces=((2, 0), (0, 2))), 3),
        (prof("IV", 4, 2, 1, w=1, n=4, traces=((1, 1), (1, 1))), 4),
        (prof("IV", 8, 1, 2, w=1, n=4, traces=((1, 1),)), 5),
    ],
    "odd_realizable": [
        prof("III", 4, 1, 2, w=1, n=4, disc=False),
        prof("III", 4, 1, 2, w=1, n=6),
        prof("IV", 4, 2, 1, w=1, n=4, traces=((2, 0), (1, 1))),
        prof("IV", 4, 2, 1, w=1, n=4, traces=((1, 1), (0, 2))),
        prof("IV", 8, 1, 2, w=1, n=8, traces=((1, 3),)),
    ],
    "even_exceptional": [
        (prof("II", 4, 1, 2, w=2, n=2), 1),
        (prof("II", 4, 1, 2, w=2, n=4, disc=True), 2),
        (prof("IV", 4, 2, 1, w=2, n=4, traces=((0, 2), (2, 0))), 3),
        (prof("IV", 4, 2, 1, w=2, n=4, traces=((1, 1), (1, 1))), 4),
        (prof("IV", 8, 1, 2, w=2, n=4, traces=((1, 1),)), 5),
        (prof("I", 2, 2, 1, w=2, n=2), 6),
        (prof("I", 2, 2, 1, w=2, n=4, disc=True), 7),
    ],
    "even_realizable": [
        prof("II", 4, 1, 2, w=2, n=4, disc=False),
        prof("II", 4, 1, 2, w=2, n=6),
        prof("IV", 4, 2, 1, w=2, n=4, traces=((1, 1), (2, 0))),
        prof("IV", 4, 2, 1, w=2, n=6, traces=((1, 2), (2, 1))),
        prof("IV", 8, 1, 2, w=2, n=8, traces=((1, 3),)),
        prof("I", 2, 2, 1, w=2, n=6),
        prof("I", 2, 2, 1, w=2, n=4, disc=False),
    ],
}


def make_totaro():
    payload = {"exceptional": [], "realizable": []}
    for key in ("odd_exceptional", "even_exceptional"):
        parity = key.split("_")[0]
        for p, index in TOTARO[key]:
            verdict = realizable(p)
            assert verdict.realizable is False, (key, index)
            assert verdict.case is not None and not verdict.case.conditional
            assert verdict.case.case.parity == parity
            assert verdict.case.case.index == index
            payload["exceptional"].append(
                {
                    "profile": profile_to_json(p),
                    "parity": parity,
                    "case_index": index,
                }
            )
    for key in ("odd_realizable", "even_realizable"):
        for p in TOTARO[key]:
            verdict = realizable(p)
            assert verdict.realizable is True, profile_to_json(p)
            payload["realizable"].append({"profile": profile_to_json(p)})
    assert len(payload["exceptional"]) == 12
    assert len(payload["realizable"]) == 12
    write("totaro_cases.json", payload)


# --- The n=2p grid -------------------------------------------------------


def alternating(count):
    return tuple(((1, 0) if i % 2 else (0, 1)) for i in range(count))


def iv_mixed(p_val):
    # one (2,0) and one (0,2) among (1,1): never all-ones, nonzero products
    rows = [(1, 1)] * p_val
    rows[0] = (2, 0)
    rows[1] = (0, 2)
    return tuple(rows)


def make_2p_grid():
    rows = []
    for p in (3, 5, 7):
        n = 2 * p
        cells = []
        # Type I shapes
        for dL, parities in [(1, "oe"), (2, "oe"), (p, "oe"), (2 * p, "o")]:
            for parity in parities:
                w = 1 if parity == "o" else 2
                disc = False if (parity == "e" and dL == p) else None
                cells.append((prof("I", dL, dL, 1, w=w, n=n, disc=disc), None))
        # Type II / III shapes
        for t in ("II", "III"):
            for dF, parities in [(1, "oe"), (p, "oe")]:
                m = n // (2 * dF)
                for parity in parities:
                    w = 1 if parity == "o" else 2
                    if m == 1:
                        sp_side = (parity == "o") == (t == "II")
                        if not sp_side:
                            continue  # excluded shape
                    cells.append((prof(t, 4 * dF, dF, 2, w=w, n=n), None))
        # Type IV with a balanced imaginary quadratic subfield
        subs = [SubfieldDescriptor(2, True)]
        subs_galois = [SubfieldDescriptor(2, True, galois_L=True)]
        for parity in "oe":
            w = 1 if parity == "o" else 2
            cells.append((prof("IV", 2, 1, 1, w=w, n=n, traces=((p, p),)), subs))
            cells.append(
                (
                    prof("IV", 4, 2, 1, w=w, n=n, traces=((1, p - 1), (p - 1, 1))),
                    subs,
                )
            )
            if p != 3:
                # p=3 with [L:Q]=2p is inconsistent with the rank bound
                cells.append(
                    (prof("IV", 2 * p, p, 1, w=w, n=n, traces=iv_mixed(p)), subs)
                )
            cells.append(
                (
                    prof("IV", 4 * p, 2 * p, 1, w=w, n=n, traces=alternating(n)),
                    subs_galois,
                )
            )
        for p_profile, subfields in cells:
            out = classify(p_profile, subfields)
            assert out.status == "determined", profile_to_json(p_profile)
            assert len(out.candidates) == 1
            group = out.candidates[0].group
            t = p_profile.endo.albert_type
            if t in ("I", "II", "III"):
                assert group == lefschetz_group(p_profile)
            elif p_profile.endo.deg_L == 4 * p:
                assert group.family == "SU_{L/E}"
                from hodgekit.lefschetz import group_rank

                assert group_rank(group) == 2 * p - 1
            else:
                assert group.family == "SU(B)"
            rows.append(
                {
                    "p": p,
                    "profile": profile_to_json(p_profile),
                    "subfields": [s.to_json() for s in subfields or []],
                    "group": group.to_json(),
                }
            )
    write("thm_2p_grid.json", {"rows": rows})


# --- The consequences grid ------------------------------------------------


def make_consequences():
    p = 3
    grid = [
        ("I", 1, 1, 1, None, ()),
        ("I", 2, 2, 1, None, ()),
        ("I", 6, 6, 1, None, ()),
        ("II", 4, 1, 2, None, ()),
        ("II", 12, 3, 2, None, ()),
        ("III", 4, 1, 2, None, ()),
        ("IV", 2, 1, 1, ((3, 3),), (SubfieldDescriptor(2, True),)),
        (
            "IV",
            12,
            6,
            1,
            alternating(6),
            (SubfieldDescriptor(2, True, galois_L=True),),
        ),
        ("IV", 6, 3, 1, ((1, 1), (2, 0), (0, 2)), ()),
    ]
    expected = [
        (True, True, "proven", True),
        (True, True, "proven", True),
        (True, True, "proven", True),
        (True, True, "proven", True),
        (True, True, "proven", True),
        (True, True, "open", True),
        (True, True, "open", True),
        (True, True, "open", False),
        (None, None, "open", False),
    ]
    rows = []
    for (t, dL, dF, q, traces, subs), exp in zip(grid, expected):
        ap = AbelianProfile(
            dim=2 * p,
            endo=EndomorphismDescriptor(t, dL, dF, q, cm_traces=traces),
            subfields=subs,
        )
        equal, rationale = murty_equal(ap)
        status = hodge_status(ap)
        exp_murty, exp_dwg, exp_hc, exp_ghc = exp
        assert equal is exp_murty, (t, dL)
        assert status.divisor_weil_generated is exp_dwg, (t, dL)
        assert status.hc_all_powers == exp_hc, (t, dL)
        assert status.ghc_reduction is exp_ghc, (t, dL)
        rows.append(
            {
                "dim": 2 * p,
                "endo": profile_to_json(ap.hodge_profile())["endo"],
                "subfields": [s.to_json() for s in subs],
                "murty_equal": equal,
                "status": status.to_json(),
            }
        )
    write("consequences_grid.json", {"rows": rows})


# --- The CLI: argv, stdin, exit code, stdout and stderr of every subcommand


def _pj(t, dL, dF, q, w=1, n=4, **extra):
    endo = {"type": t, "deg_L": dL, "deg_F": dF, "q": q, **extra}
    return json.dumps({"weight": w, "n": n, "endo": endo})


N3 = _pj("I", 1, 1, 1, n=3)
LONG = "1" * 4301
IV6 = _pj("IV", 2, 1, 1, n=6, cm_traces=[[3, 3]])
ABELIAN = {"dim": 6, "endo": {"type": "II", "deg_L": 4, "deg_F": 1, "q": 2}}
BALANCED = [{"deg_E": 2, "balanced": True}]
BALANCED_AND_NOT = [*BALANCED, {"deg_E": 2, "balanced": False}]
# [L:Q] = 12 = 4p at p = 3: the n = 2p result needs L/Q Galois
IV12_ENDO = {
    "type": "IV", "deg_L": 12, "deg_F": 6, "q": 1,
    "cm_traces": [list(pair) for pair in alternating(6)],
}
ABELIAN_IV_LOW_RANK = {
    "dim": 6,
    "endo": {"type": "IV", "deg_L": 6, "deg_F": 3, "q": 1, "cm_traces": [[2, 0], [1, 1], [2, 0]]},
    "subfields": BALANCED,
}


def _bits(count, seed):
    rng = random.Random(seed)
    return [rng.getrandbits(1) for _ in range(count)]


def _theta(points):
    return ",".join(map(str, sorted(points)))


def _coords(rank, entries):
    """Comma-separated fundamental-weight coordinates, 1-based entries."""
    return ",".join(str(entries.get(i, 0)) for i in range(1, rank + 1))


# CM types on models too large for `cm scan`, written out from the pair
# structure of each model.  A seeded random type is primitive; the induced
# types are unions of blocks of a proper system.
# cyclic:N pairs i with i + N/2.
CYCLIC128 = _theta(i + 64 * b for i, b in enumerate(_bits(64, 128)))
CYCLIC256 = _theta(i + 128 * b for i, b in enumerate(_bits(128, 256)))
# abelian:2,...,2 pairs x with x ^ 1 (the last coordinate is the low bit);
# the induced type ignores bit 6, so it is a union of cosets of the first
# factor.
ABELIAN2_7 = _theta(2 * i + b for i, b in enumerate(_bits(64, 7)))
ABELIAN2_7_INDUCED = _theta(2 * i + b for i, b in enumerate(_bits(32, 77) * 2))
# dihedral:32 has point a + 32 b for r^a s^b and pairs it with its product
# by r^16; the induced type is a union of the cosets {r^a, r^a s}.
DIHEDRAL32 = _theta(k % 16 + 16 * bit + 32 * (k // 16) for k, bit in enumerate(_bits(32, 32)))
DIHEDRAL32_INDUCED = _theta(
    a + 16 * bit + 32 * b for a, bit in enumerate(_bits(16, 33)) for b in (0, 1)
)
# dihedral:10 has n = 10 = 2 mod 4, so its odd 1-dimensional characters
# exist; this type is primitive and one of them vanishes on it.
DIHEDRAL10 = _theta(k % 5 + 5 * bit + 10 * (k // 5) for k, bit in enumerate(_bits(10, 11)))
# dihedral:128 pairs r^a s^b with r^(a+64) s^b.  Every nontrivial subgroup of
# the rotations holds r^64, so no type is a union of cosets of one; the
# induced type is a union of the cosets {r^a, r^(a+37) s} of <r^37 s>.
DIHEDRAL128 = _theta(k % 64 + 64 * bit + 128 * (k // 64) for k, bit in enumerate(_bits(128, 128)))
_D128_ROTATIONS = [a + 64 * bit for a, bit in enumerate(_bits(64, 129))]
DIHEDRAL128_REFLECTED = _theta(
    _D128_ROTATIONS + [128 + (x + 37) % 128 for x in _D128_ROTATIONS]
)
# dihedral:120 pairs r^a s^b with r^(a+60) s^b; r^40 has order 3, and this
# type is a union of the cosets r^a s^b <r^40>.
DIHEDRAL120_ROTATED = _theta(
    a + 20 * bit + 40 * j + 120 * b
    for b in (0, 1)
    for a, bit in enumerate(_bits(20, 120 + b))
    for j in range(3)
)

# Models whose group is far larger than any orbit in them, on two copies of
# k points with conjugation the copy swap: Z2 x S9 (725,760 elements, at
# most 252 translates of a type) and Z2 wr S7 (645,120 elements, 128).
Z2_S9 = "perms:18:(0 1 2 3 4 5 6 7 8)(9 10 11 12 13 14 15 16 17);(0 1)(9 10)"
Z2_S9_IOTA = "".join(f"({i} {i + 9})" for i in range(9))
Z2_S9_THETA = "0,1,2,12,13,14,15,16,17"
Z2_WR_S7 = "perms:14:(0 1 2 3 4 5 6)(7 8 9 10 11 12 13);(0 1)(7 8);(0 7)"
Z2_WR_S7_IOTA = "".join(f"({i} {i + 7})" for i in range(7))


# (argv, stdin, {file name: JSON content}, hand-derived exit code); "@name"
# in argv stands for the path of that file.
CLI_CASES = [
    (["validate"], N3, {}, 0),
    (["validate", "--pretty"], N3, {}, 0),
    (["validate"], _pj("I", 4, 4, 1, n=3), {}, 3),
    (["validate"], "{oops", {}, 2),
    (["validate"], "[1]", {}, 2),
    (["validate", "--profile", "@p.json"], "", {"p.json": {"n": 3}}, 2),
    (["realizable"], N3, {}, 0),
    (["realizable"], _pj("I", 2, 2, 1, w=2, n=2), {}, 3),
    (["realizable"], _pj("I", 4, 4, 1, n=3), {}, 4),
    (["lefschetz"], N3, {}, 0),
    (["lefschetz", "--pretty"], _pj("IV", 4, 2, 1, cm_traces=[[2, 0], [1, 1]]), {}, 0),
    (["lefschetz"], _pj("I", 4, 4, 1, n=3), {}, 2),
    (["classify"], N3, {}, 0),
    (["classify", "--pretty"], _pj("I", 1, 1, 1, w=2), {}, 0),
    (["classify", "--subfields", "@s.json"], IV6, {"s.json": BALANCED}, 0),
    (["classify"], _pj("III", 4, 1, 2, n=2), {}, 3),
    (["classify", "--pretty"], _pj("I", 2, 2, 1, w=2, n=2), {}, 3),
    (["classify", "--table3"], "", {}, 0),
    (["classify", "--table3", "--pretty"], "", {}, 0),
    (["classify", "--subfields", "@s.json"], IV6, {"s.json": {"deg_E": 2}}, 2),
    (["classify", "--subfields", "@s.json"], IV6, {"s.json": [{"deg_E": 2}]}, 2),
    (["classify", "--subfields", "@s.json"], IV6, {"s.json": [{"deg_E": 4, "balanced": True}]}, 2),
    (["classify", "--subfields", "missing.json"], IV6, {}, 2),
    # subfields whose flag contradicts the traces at n = 2p, refused alike
    # by classify and abelian status: a second, unbalanced quadratic field
    # beside a balanced one on the traces (3, 3), and a balanced full field
    # on traces that are not all balanced
    (["classify", "--subfields", "@s.json"], IV6, {"s.json": BALANCED_AND_NOT}, 2),
    (
        ["abelian", "status"],
        json.dumps({"dim": 6, "endo": json.loads(IV6)["endo"], "subfields": BALANCED_AND_NOT}),
        {},
        2,
    ),
    (
        ["classify", "--subfields", "@s.json"],
        _pj("IV", 6, 3, 1, n=6, cm_traces=[[0, 2], [0, 2], [1, 1]]),
        {"s.json": [{"deg_E": 6, "balanced": True}]},
        2,
    ),
    (["classify"], _pj("I", 1, 1, 1, n=MR_EXACT_BOUND), {}, 2),
    # a number one digit past Python's default limit on reading an int
    (["classify"], _pj("I", 1, 1, 1).replace('"n": 4', f'"n": {LONG}'), {}, 2),
    (["numth", "verify", "--k-max", LONG], "", {}, 2),
    # 924 = C(12, 6) is the orthogonal middle wedge of A11, not SU(2^k):
    # the wedge alternative is dropped at type I, n = 462, even weight,
    # and at type III, F = Q, m = 462, odd weight
    (["classify"], _pj("I", 1, 1, 1, w=2, n=462), {}, 0),
    (["classify"], _pj("III", 4, 1, 2, w=1, n=924), {}, 0),
    # large-rank edges: n = C(32, 16) is twice odd (SL(2) x SL(2^5) struck at
    # odd weight), and 2n = C(64, 32) offers SU(2^6) at even weight
    (["classify"], _pj("I", 1, 1, 1, w=1, n=601080390), {}, 0),
    (["classify"], _pj("I", 1, 1, 1, w=2, n=601080390), {}, 0),
    (["classify"], _pj("I", 1, 1, 1, w=2, n=916312070471295267), {}, 0),
    # type IV with q = 2 gets the Lefschetz upper bound at n = 4 as at every n
    (["classify"], _pj("IV", 8, 1, 2), {}, 0),
    # outside the classified cases a balanced subfield adds its SU(B,-) bound
    (
        ["classify", "--subfields", "@s.json"],
        _pj("IV", 4, 2, 1, n=16, cm_traces=[[4, 4], [4, 4]]),
        {"s.json": BALANCED},
        0,
    ),
    # one case per conditional branch: the n = 4 trace gap, the n = 4 torus
    # and the general torus (n = 8) without an inventory, the n = 2p
    # inventory gaps at [L:Q] = 4, 6 (the balanced alternative is below the
    # rank floor) and 12 = 4p, the n = 2p Galois gap, the [L:Q] = 2 trace
    # gap at n = 9, and a determined answer on a profile not confirmed
    # realizable (type III, m = 2, disc_one absent)
    (["classify"], _pj("IV", 2, 1, 1), {}, 0),
    (["classify"], _pj("IV", 8, 4, 1), {}, 0),
    (["classify"], _pj("IV", 16, 8, 1, n=8), {}, 0),
    (["classify"], _pj("IV", 4, 2, 1, n=6), {}, 0),
    (["classify"], _pj("IV", 6, 3, 1, n=6), {}, 0),
    (["classify"], _pj("IV", 12, 6, 1, n=6), {}, 0),
    (["classify", "--subfields", "@s.json"], _pj("IV", 12, 6, 1, n=6), {"s.json": BALANCED}, 0),
    # n = 4, [L:Q] = 8 with a balanced quadratic subfield: SU_{L/E}, the
    # profile read from a file
    (
        ["classify", "--profile", "@p.json", "--subfields", "@s.json"],
        "",
        {
            "p.json": json.loads(_pj("IV", 8, 4, 1, cm_traces=[[1, 0], [0, 1], [1, 0], [0, 1]])),
            "s.json": BALANCED,
        },
        0,
    ),
    # no pair (a, 9 - a) balances, so the SU(B,-) upper bound is not offered
    (["classify"], _pj("IV", 2, 1, 1, n=9), {}, 0),
    (["classify"], _pj("III", 4, 1, 2), {}, 0),
    (["weights", "dim", "A", "3", "0,1,0"], "", {}, 0),
    (["weights", "dim", "E", "7", "0,0,0,0,0,0,1"], "", {}, 0),
    (["weights", "dim", "E", "7", "0,0,0,0,0,0,1", "--pretty"], "", {}, 0),
    (["weights", "autodual", "C", "3", "1,0,0"], "", {}, 0),
    (["weights", "autodual", "A", "3", "0,1,0"], "", {}, 0),
    (["weights", "length", "A", "3", "0,1,0"], "", {}, 0),
    (["weights", "length", "D", "4", "0,0,0,1"], "", {}, 0),
    (["weights", "length", "A", "5", "1,0,2,0,1"], "", {}, 0),
    (["weights", "length", "A", "5", "0,0,0,0,0"], "", {}, 0),
    (["weights", "length", "C", "4", "1,0,0,0"], "", {}, 0),
    (["weights", "length", "C", "4", "2,1,0,1"], "", {}, 0),
    (["weights", "length", "D", "6", "1,0,0,1,2,0"], "", {}, 0),
    (["weights", "length", "E", "6", "1,0,1,0,0,2"], "", {}, 0),
    (["weights", "length", "E", "7", "0,1,0,0,2,0,1"], "", {}, 0),
    (["weights", "length", "A", "3", "1,-1,0"], "", {}, 2),
    (["weights", "dim", "Z", "3", "0,1,0"], "", {}, 2),
    (["weights", "dim", "A", "3", "0,1"], "", {}, 2),
    (["weights", "autodual", "A", "3", "0,x,0"], "", {}, 2),
    (["weights", "length", "B", "1000", "1"], "", {}, 2),
    (["weights", "verify-table2", "--max-rank", "3"], "", {}, 0),
    (["weights", "verify-table2", "--max-rank", "4"], "", {}, 0),
    (["weights", "verify-table2", "--max-rank", "4", "--pretty"], "", {}, 0),
    (["weights", "verify-table2", "--max-rank", "10"], "", {}, 0),
    (["weights", "verify-table2", "--max-rank", "14"], "", {}, 0),
    (["weights", "dim", "B", "20", _coords(20, {1: 1, 20: 1})], "", {}, 0),
    (["weights", "dim", "C", "20", _coords(20, {2: 1, 19: 2})], "", {}, 0),
    (["weights", "dim", "D", "24", _coords(24, {3: 1, 23: 1, 24: 2})], "", {}, 0),
    (["weights", "length", "B", "20", _coords(20, {2: 1, 7: 3, 20: 1})], "", {}, 0),
    (["weights", "length", "C", "20", _coords(20, {1: 2, 13: 1, 20: 1})], "", {}, 0),
    (["weights", "length", "D", "24", _coords(24, {5: 1, 23: 2})], "", {}, 0),
    (["weights", "autodual", "B", "20", _coords(20, {20: 1})], "", {}, 0),
    (["weights", "autodual", "C", "20", _coords(20, {1: 1})], "", {}, 0),
    (["weights", "autodual", "D", "24", _coords(24, {23: 1})], "", {}, 0),
    (["weights", "autodual", "B", "20", _coords(20, {1: 1, 20: 1})], "", {}, 2),
    (["weights", "verify-table2", "--max-rank", "1000"], "", {}, 2),
    (["weights", "verify-table2", "--max-rank", "0"], "", {}, 2),
    (["weights", "verify-table2", "--max-rank", "-1"], "", {}, 2),
    (["cm", "--group", "cyclic:6", "rank", "--theta", "0,1,2"], "", {}, 0),
    (["cm", "--group", "cyclic:6", "rank", "--theta", "0,1,2", "--invariants"], "", {}, 0),
    (["cm", "--group", "cyclic:6", "primitive", "--theta", "0,1,2"], "", {}, 0),
    (["cm", "--group", "cyclic:6", "primitive", "--theta", "0,2,4"], "", {}, 3),
    (["cm", "--group", "cyclic:8", "primitive", "--theta", "0,1,2,7", "--pretty"], "", {}, 0),
    (["cm", "--group", "cyclic:6", "scan"], "", {}, 0),
    (["cm", "--group", "abelian:2,4", "scan"], "", {}, 0),
    (["cm", "--group", "cyclic:6", "--iota", "(0 3)(1 4)(2 5)", "scan"], "", {}, 0),
    (["cm", "--group", "perms:6:(0 1 2 3 4 5)", "--iota", "(0 3)(1 4)(2 5)", "rank", "--theta", "0,2,4"], "", {}, 0),
    (["cm", "--group", "perms:6:(0 1 2 3 4 5)", "rank", "--theta", "0,2,4"], "", {}, 2),
    (["cm", "--group", "cyclic:5", "scan"], "", {}, 2),
    (["cm", "--group", "torus:6", "scan"], "", {}, 2),
    (["cm", "--group", "cyclic:6", "--iota", "(0 1)", "scan"], "", {}, 2),
    (["cm", "--group", "cyclic:6", "rank", "--theta", "0,1"], "", {}, 2),
    (["cm", "--group", "cyclic:6", "rank", "--theta", "0,a"], "", {}, 2),
    (["cm", "--group", "perms:4:(0 1 2 3)", "--iota", "(0 2)(1 3)", "rank", "--theta", "0,1,1"], "", {}, 2),
    (["cm", "--group", "perms:4:(0 1 2 3)", "--iota", "(0 2)(1 3)", "primitive", "--theta", "0,1,1"], "", {}, 2),
    (["cm", "--group", "cyclic:6", "rank", "--theta", "0,,1"], "", {}, 2),
    (["cm", "--group", "cyclic:64", "scan"], "", {}, 2),
    (["cm", "--group", "cyclic:6", "rank"], "", {}, 2),
    # every number of --group is read as an integer, or the spec is refused
    (["cm", "--group", "cyclic:", "scan"], "", {}, 2),
    (["cm", "--group", "cyclic:6,8", "scan"], "", {}, 2),
    (["cm", "--group", "dihedral:a", "scan"], "", {}, 2),
    (["cm", "--group", "abelian:2,,2", "scan"], "", {}, 2),
    (["cm", "--group", "perms:x:(0 1)", "--iota", "(0 1)", "scan"], "", {}, 2),
    (["cm", "--group", "perms:6", "--iota", "(0 3)(1 4)(2 5)", "scan"], "", {}, 2),
    (["cm", "--group", "cyclic:6", "--iota", "(0 a)(1 4)(2 5)", "scan"], "", {}, 2),
    # an argv number is ASCII -?[0-9]+: no other literal form int() takes
    (["cm", "--group", "cyclic:0_6", "rank", "--theta", "0,1,2"], "", {}, 2),
    (["cm", "--group", "cyclic:+6", "rank", "--theta", "0,1,2"], "", {}, 2),
    (["cm", "--group", "cyclic: 6", "rank", "--theta", "0,1,2"], "", {}, 2),
    (["cm", "--group", "cyclic:\u0666", "rank", "--theta", "0,1,2"], "", {}, 2),
    (["cm", "--group", "perms:4:(\u0660 1 2 3)", "--iota", "(0 2)(1 3)", "scan"], "", {}, 2),
    (["cm", "--group", "cyclic:6", "rank", "--theta", "0,1_0,+2"], "", {}, 2),
    (["weights", "dim", "A", "2", "+1,0"], "", {}, 2),
    (["cm", "--group", "cyclic:128", "rank", "--theta", CYCLIC128], "", {}, 0),
    (["cm", "--group", "cyclic:128", "primitive", "--theta", CYCLIC128], "", {}, 0),
    (["cm", "--group", "cyclic:256", "rank", "--theta", CYCLIC256], "", {}, 0),
    (["cm", "--group", "cyclic:256", "primitive", "--theta", CYCLIC256], "", {}, 0),
    (["cm", "--group", "abelian:2,2,2,2,2,2,2", "rank", "--theta", ABELIAN2_7], "", {}, 0),
    (["cm", "--group", "abelian:2,2,2,2,2,2,2", "primitive", "--theta", ABELIAN2_7], "", {}, 0),
    (["cm", "--group", "abelian:2,2,2,2,2,2,2", "rank", "--theta", ABELIAN2_7_INDUCED], "", {}, 0),
    (["cm", "--group", "abelian:2,2,2,2,2,2,2", "primitive", "--theta", ABELIAN2_7_INDUCED], "", {}, 3),
    (["cm", "--group", "dihedral:32", "rank", "--theta", DIHEDRAL32], "", {}, 0),
    (["cm", "--group", "dihedral:32", "primitive", "--theta", DIHEDRAL32], "", {}, 0),
    (["cm", "--group", "dihedral:32", "rank", "--theta", DIHEDRAL32_INDUCED], "", {}, 0),
    (["cm", "--group", "dihedral:32", "primitive", "--theta", DIHEDRAL32_INDUCED], "", {}, 3),
    (["cm", "--group", Z2_S9, "--iota", Z2_S9_IOTA, "scan"], "", {}, 0),
    (["cm", "--group", Z2_S9, "--iota", Z2_S9_IOTA, "rank", "--theta", Z2_S9_THETA], "", {}, 0),
    (
        ["cm", "--group", Z2_S9, "--iota", Z2_S9_IOTA, "rank", "--theta", Z2_S9_THETA,
         "--invariants"],
        "",
        {},
        0,
    ),
    (["cm", "--group", Z2_S9, "--iota", Z2_S9_IOTA, "primitive", "--theta", Z2_S9_THETA], "", {}, 0),
    (["cm", "--group", Z2_WR_S7, "--iota", Z2_WR_S7_IOTA, "scan"], "", {}, 0),
    (["numth", "verify", "--k-max", "6"], "", {}, 0),
    (["numth", "verify", "--k-max", "14"], "", {}, 0),
    (["numth", "verify", "--k-max", "4", "--pretty"], "", {}, 0),
    (["numth", "verify", "--k-max", "2"], "", {}, 2),
    (["abelian", "status"], json.dumps(ABELIAN), {}, 0),
    (["abelian", "status"], json.dumps({"dim": 6, "endo": json.loads(N3)["endo"]}), {}, 0),
    (
        ["abelian", "status", "--pretty"],
        json.dumps({"dim": 6, "endo": json.loads(IV6)["endo"], "subfields": BALANCED}),
        {},
        0,
    ),
    # the n = 2p type IV edges: [L:Q] = 4p with the Galois flag false,
    # absent, and no subfield at all; and [L:Q] = 2 without trace data,
    # where realizability is unconfirmed
    (
        ["abelian", "status"],
        json.dumps({"dim": 6, "endo": IV12_ENDO, "subfields": [{**BALANCED[0], "galois_L": False}]}),
        {},
        0,
    ),
    (["abelian", "status"], json.dumps({"dim": 6, "endo": IV12_ENDO, "subfields": BALANCED}), {}, 0),
    (["abelian", "status"], json.dumps({"dim": 6, "endo": IV12_ENDO, "subfields": []}), {}, 0),
    (
        ["abelian", "status"],
        json.dumps({"dim": 6, "endo": {"type": "IV", "deg_L": 2, "deg_F": 1, "q": 1}, "subfields": BALANCED}),
        {},
        0,
    ),
    (["abelian", "status"], "[]", {}, 2),
    (["abelian", "status"], json.dumps({**ABELIAN, "extra": 1}), {}, 2),
    (["abelian", "status"], json.dumps({**ABELIAN, "dim": "6"}), {}, 2),
    (["abelian", "status"], json.dumps({**ABELIAN, "dim": 8}), {}, 2),
    # classify refuses this data (a rank-3 group under the ceil(log2 2n) = 4
    # floor), so abelian status must not answer it
    (["abelian", "status"], json.dumps(ABELIAN_IV_LOW_RANK), {}, 2),
    (["abelian"], "", {}, 2),
    # above MR_EXACT_BOUND a factor or a Miller-Rabin base still decides n
    # (type I, L = Q): an even n, n = 2p with p below the bound, and an odd
    # n that 3 divides; n = MR_EXACT_BOUND itself passes every base and is
    # refused above
    (["classify"], _pj("I", 1, 1, 1, n=3_317_044_064_679_887_385_961_984), {}, 0),
    (["classify"], _pj("I", 1, 1, 1, n=2 * 1_658_522_032_339_943_692_981_061), {}, 0),
    (["classify"], _pj("I", 1, 1, 1, n=3_317_044_064_679_887_385_961_983), {}, 0),
    # dihedral models past the scan cap: a seeded type, and induced types
    # whose stabilizer is a reflection and a rotation subgroup
    (["cm", "--group", "dihedral:10", "rank", "--theta", DIHEDRAL10], "", {}, 0),
    (["cm", "--group", "dihedral:10", "primitive", "--theta", DIHEDRAL10], "", {}, 0),
    (["cm", "--group", "dihedral:128", "rank", "--theta", DIHEDRAL128], "", {}, 0),
    (["cm", "--group", "dihedral:128", "primitive", "--theta", DIHEDRAL128], "", {}, 0),
    (["cm", "--group", "dihedral:128", "rank", "--theta", DIHEDRAL128_REFLECTED], "", {}, 0),
    (["cm", "--group", "dihedral:128", "primitive", "--theta", DIHEDRAL128_REFLECTED], "", {}, 3),
    (["cm", "--group", "dihedral:120", "rank", "--theta", DIHEDRAL120_ROTATED], "", {}, 0),
    (["cm", "--group", "dihedral:120", "primitive", "--theta", DIHEDRAL120_ROTATED], "", {}, 3),
    # the type IV [L:Q] = 2 trace rule: coprime and balanced traces at n = 4;
    # at n = 8 (m/2 = 4 is not prime) no traces, balanced, neither coprime
    # nor balanced, and coprime; and the balanced full-CM rule at n = 12,
    # [L:Q] = 4 (m/2 = 3)
    (["classify"], _pj("IV", 2, 1, 1, cm_traces=[[1, 3]]), {}, 0),
    (["classify"], _pj("IV", 2, 1, 1, cm_traces=[[2, 2]]), {}, 0),
    (["classify"], _pj("IV", 2, 1, 1, n=8), {}, 0),
    (["classify"], _pj("IV", 2, 1, 1, n=8, cm_traces=[[4, 4]]), {}, 0),
    (["classify"], _pj("IV", 2, 1, 1, n=8, cm_traces=[[2, 6]]), {}, 0),
    (["classify"], _pj("IV", 2, 1, 1, n=8, cm_traces=[[1, 7]]), {}, 0),
    (["classify"], _pj("IV", 4, 2, 1, n=12, cm_traces=[[3, 3], [3, 3]]), {}, 0),
    # realizability unconfirmed, with the missing datum named: type III,
    # m = 2 without disc_one, and type IV, [L:Q] = 2 without traces; like
    # classify, the realizable subcommand exits 3 only on a False verdict
    (["realizable"], _pj("III", 4, 1, 2), {}, 0),
    (["realizable"], _pj("IV", 2, 1, 1), {}, 0),
    # answers pinned as they stand, so that mending them shows each change
    # here.  A balanced quadratic subfield beside the unbalanced [L:Q] = 2
    # traces (n - 1, 1): accepted at n = 4 and 8, refused at n = 6.  A
    # balanced subfield of degree n, whose own bound has rank n/2, below the
    # ceil(log2 2n) floor: answered at n = 2, 4 and 6.  A q = 3 profile
    # whose note names q = 2.  A subfield bound larger than the Lefschetz
    # group (SU(B,-) of dimension 63 beside R_{F/Q}U(B,-) of dimension 32).
    (["classify", "--subfields", "@s.json"], _pj("IV", 2, 1, 1, cm_traces=[[3, 1]]), {"s.json": BALANCED}, 0),
    (["classify", "--subfields", "@s.json"], _pj("IV", 2, 1, 1, n=6, cm_traces=[[5, 1]]), {"s.json": BALANCED}, 2),
    (["classify", "--subfields", "@s.json"], _pj("IV", 2, 1, 1, n=8, cm_traces=[[7, 1]]), {"s.json": BALANCED}, 0),
    (["classify", "--subfields", "@s.json"], _pj("IV", 4, 2, 1, n=2), {"s.json": BALANCED}, 0),
    (
        ["classify", "--subfields", "@s.json"],
        _pj("IV", 4, 2, 1),
        {"s.json": [{"deg_E": 4, "balanced": True}]},
        0,
    ),
    (
        ["classify", "--subfields", "@s.json"],
        _pj("IV", 6, 3, 1, n=6),
        {"s.json": [{"deg_E": 6, "balanced": True}]},
        0,
    ),
    (["classify"], _pj("IV", 18, 1, 3, n=9), {}, 0),
    (
        ["classify", "--subfields", "@s.json"],
        _pj("IV", 4, 2, 1, n=8, cm_traces=[[4, 0], [1, 3]]),
        {"s.json": BALANCED},
        0,
    ),
    # every size cap, one step past it (SCAN_MAX_G is pinned above by
    # cyclic:64), refused before any work that grows with the size
    (["weights", "dim", "A", "1000000000", "1"], "", {}, 2),
    (["weights", "autodual", "D", str(MAX_RANK + 1), "1"], "", {}, 2),
    (["weights", "length", "B", str(MAX_RANK + 1), "1"], "", {}, 2),
    (["weights", "verify-table2", "--max-rank", str(MAX_RANK + 1)], "", {}, 2),
    (["numth", "verify", "--k-max", str(VERIFY_MAX_K + 1)], "", {}, 2),
    (["cm", "--group", f"cyclic:{2 * MAX_DEGREE}", "rank", "--theta", "0"], "", {}, 2),
    (["cm", "--group", f"dihedral:{MAX_DEGREE}", "primitive", "--theta", "0"], "", {}, 2),
    (["cm", "--group", f"abelian:{MAX_DEGREE},2", "scan"], "", {}, 2),
    (["cm", "--group", f"perms:{MAX_DEGREE + 2}:(0 1)", "--iota", "(0 1)", "scan"], "", {}, 2),
]

# The two outputs that are text, not JSON.
CLI_TEXT = [
    ["classify", "--table3", "--pretty"],
    ["weights", "verify-table2", "--max-rank", "4", "--pretty"],
]

# The two argparse usage errors: their wording differs across Python
# versions, so their stderr is not recorded.
CLI_USAGE = [
    ["cm", "--group", "cyclic:6", "rank"],
    ["abelian"],
]


def make_cli():
    cases = []
    for argv, stdin, files, expected in CLI_CASES:
        code, stdout, stderr = replay(argv, stdin, files)
        assert code == expected, (argv, code)
        if code == 2:
            assert stdout == "", argv
            assert stderr.startswith("usage:" if argv in CLI_USAGE else "error: "), argv
        else:
            assert stderr == "", argv
            if argv not in CLI_TEXT:
                json.loads(stdout)
        case = {"argv": argv, "stdin": stdin, "files": files, "exit": code, "stdout": stdout}
        if argv not in CLI_USAGE:
            case["stderr"] = stderr
        cases.append(case)
    assert sum(case["argv"] in CLI_TEXT for case in cases) == len(CLI_TEXT)
    assert sum("stderr" not in case for case in cases) == len(CLI_USAGE)
    write("cli.json", {"cases": cases})


if __name__ == "__main__":
    make_table1()
    make_table3()
    make_totaro()
    make_2p_grid()
    make_consequences()
    make_cli()
