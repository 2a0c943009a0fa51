"""Acceptance criteria, one test per criterion, each timed and reported.

Every criterion is exact (integer arithmetic throughout) and carries the
runtime budget stated up front; budgets are asserted, not advisory.
"""

from __future__ import annotations

import importlib.util
import json
import math
import pathlib
import random
import time

import pytest

from hodgekit.classifier import (
    SubfieldDescriptor,
    classify,
    rank_threshold,
    table3,
)
from hodgekit.cmtools import CMType, cyclic_model, is_primitive, kubota_rank
from hodgekit.core import EndomorphismDescriptor, HodgeProfile, profile_from_json
from hodgekit.lefschetz import group_rank, lefschetz_group
from hodgekit.numth import (
    central_binomial_mod4,
    no_prime_double_is_central_binomial,
    prime_count_gap,
)
from hodgekit.realizability import realizable
from hodgekit.rootsys import RootSystem, verify_minuscule_table

from oracles import central_binomial_mod4_direct, fraction_rank, group_of, primes_up_to

GOLDEN = pathlib.Path(__file__).parent / "golden"


def load(name):
    return json.loads((GOLDEN / name).read_text())


class budget:
    """Assert the body runs inside the stated wall-clock budget."""

    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"{self.label} PASS ({elapsed:.3f}s < {self.seconds}s)")
            assert elapsed < self.seconds, f"{self.label} exceeded time budget"
        else:
            print(f"{self.label} FAIL ({elapsed:.3f}s)")
        return False


def test_ac01_table1_reproduction():
    with budget("AC1 table-1 reproduction", 1.0):
        golden = load("table1.json")
        assert len(golden["cells"]) == 8
        seen = set()
        for cell in golden["cells"]:
            profile = profile_from_json(cell["profile"])
            group = lefschetz_group(profile)
            assert group.to_json() == cell["group"]
            seen.add((cell["albert_type"], cell["parity"]))
        assert len(seen) == 8


def test_ac02_table3_reproduction():
    with budget("AC2 table-3 reproduction", 1.0):
        golden = load("table3.json")
        rows = table3()
        assert [json.dumps(r, sort_keys=True) for r in rows] == [
            json.dumps(r, sort_keys=True) for r in golden["rows"]
        ]
        assert len(rows) == 13
        labels = {
            (r["odd"] or {}).get("label") for r in rows
        } | {(r["even"] or {}).get("label") for r in rows}
        assert {"SL(2)xSO(4)", "SO(7)", "SU(B,-)", "SU_{L/E}"} <= labels


def test_ac03_exclusion_catalog_suite():
    with budget("AC3 exclusion catalog (12 + 12)", 1.0):
        golden = load("totaro_cases.json")
        assert len(golden["exceptional"]) == 12
        assert len(golden["realizable"]) == 12
        for entry in golden["exceptional"]:
            verdict = realizable(profile_from_json(entry["profile"]))
            assert verdict.realizable is False
            assert verdict.case is not None and not verdict.case.conditional
            assert verdict.case.case.parity == entry["parity"]
            assert verdict.case.case.index == entry["case_index"]
        for entry in golden["realizable"]:
            verdict = realizable(profile_from_json(entry["profile"]))
            assert verdict.realizable is True


def test_ac04_minuscule_table_verification():
    with budget("AC4 minuscule table ranks <= 10 plus E6/E7", 10.0):
        systems = []
        for kind, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
            systems += [RootSystem(kind, l) for l in range(lo, 11)]
        systems += [RootSystem("E", 6), RootSystem("E", 7)]
        for rs in systems:
            report = verify_minuscule_table(rs)
            assert report["ok"], report


def test_ac05_central_binomial_mod4():
    with budget("AC5 central binomial mod 4, z <= 4096", 5.0):
        for z in range(1, 4097):
            carry = central_binomial_mod4(z)
            assert (carry == 2) == (z & (z - 1) == 0), z
            assert carry in (0, 2)
        # independent big-integer path on an affordable prefix plus the
        # powers of two and their neighbours across the full range
        spots = set(range(1, 513))
        k = 1
        while k <= 4096:
            spots.update({k - 1, k, k + 1})
            k *= 2
        for z in sorted(s for s in spots if 1 <= s <= 4096):
            assert central_binomial_mod4(z) == central_binomial_mod4_direct(z)


def test_ac06_dyadic_arithmetic():
    with budget("AC6 halved central binomials and dyadic prime gaps", 10.0):
        ok, witnesses = no_prime_double_is_central_binomial(10)
        assert ok
        for k in range(3, 11):
            primes = witnesses[k]
            assert len(primes) >= 2
            value = math.comb(1 << k, 1 << (k - 1))
            half = value // 2
            assert value % 2 == 0 and half % 2 == 1
            for p in primes:
                assert half % p == 0  # two odd prime divisors: composite
        for k in range(3, 21):
            assert prime_count_gap(k) >= 2, k


def test_ac07_kubota_calibration():
    with budget("AC7 Kubota calibration", 1.0):
        m2 = cyclic_model(2)
        theta2 = CMType(frozenset({0}))
        assert kubota_rank(m2, theta2) == (2, 1)
        m6 = cyclic_model(6)
        induced = CMType(frozenset({0, 2, 4}))
        primitive = CMType(frozenset({0, 1, 2}))
        assert kubota_rank(m6, induced) == (2, 1)
        assert not is_primitive(m6, induced)
        assert kubota_rank(m6, primitive) == (4, 3)
        assert is_primitive(m6, primitive)
        # reduced rank 3 = p matches the dimension of the CM torus case
        assert kubota_rank(m6, primitive)[1] == 3

        # independent brute-force rational-elimination oracle
        def oracle(model, theta):
            raws, reds = [], []
            for perm in group_of(model):
                image = {perm[x] for x in theta.theta}
                ind = [1 if i in image else 0 for i in range(model.size)]
                raws.append(ind)
                reds.append([2 * v - 1 for v in ind])
            return fraction_rank(raws), fraction_rank(reds)

        for model, theta in [(m2, theta2), (m6, induced), (m6, primitive)]:
            assert kubota_rank(model, theta) == oracle(model, theta)


def _random_commutative_profile(rng: random.Random):
    """A random valid profile with commutative endomorphism algebra."""
    while True:
        if rng.random() < 0.5:
            d = rng.choice([1, 1, 2, 3, 4, 5])
            l = rng.randrange(1, 13)
            n = d * l
            profile = HodgeProfile(
                weight=rng.choice([1, 2, 3, 4]),
                n=n,
                endo=EndomorphismDescriptor("I", d, d, 1, disc_one=False),
            )
        else:
            g = rng.choice([1, 1, 2, 3, 4])
            m = rng.randrange(1, 9)
            n = g * m
            traces = []
            for _ in range(g):
                a = rng.randrange(0, m + 1)
                traces.append((a, m - a))
            profile = HodgeProfile(
                weight=rng.choice([1, 2, 3, 4]),
                n=n,
                endo=EndomorphismDescriptor(
                    "IV", 2 * g, g, 1, cm_traces=tuple(traces)
                ),
            )
        verdict = realizable(profile)
        if verdict.realizable is True:
            return profile


def test_ac08_rank_bound_soundness():
    with budget("AC8 rank bound on 200 random commutative profiles", 5.0):
        rng = random.Random(41915)
        checked = 0
        for _ in range(200):
            profile = _random_commutative_profile(rng)
            outcome = classify(profile)
            floor = rank_threshold(profile.n)
            for cand in outcome.candidates:
                assert group_rank(cand.group) >= floor, (
                    profile,
                    cand.group,
                )
                checked += 1
        assert checked >= 200


def _prime_shapes(n: int):
    """Every realizable endomorphism shape at half-dimension n (n = 1 or
    prime), with decisive optional data filled in."""
    shapes = []
    for w in (1, 2):
        for d in (1, n):
            if d == n and n == 1:
                continue
            profile = HodgeProfile(
                weight=w,
                n=n,
                endo=EndomorphismDescriptor("I", d, d, 1, disc_one=False),
            )
            shapes.append(profile)
        if n == 2:
            for t in ("II", "III"):
                shapes.append(
                    HodgeProfile(
                        weight=w,
                        n=n,
                        endo=EndomorphismDescriptor(t, 4, 1, 2, disc_one=False),
                    )
                )
        # imaginary quadratic field: multiplicities (a, n-a)
        if n > 1:
            traces = ((1, n - 1),)
            shapes.append(
                HodgeProfile(
                    weight=w,
                    n=n,
                    endo=EndomorphismDescriptor("IV", 2, 1, 1, cm_traces=traces),
                )
            )
        # full CM field of degree 2n
        alt = tuple(((1, 0) if i % 2 else (0, 1)) for i in range(n))
        shapes.append(
            HodgeProfile(
                weight=w,
                n=n,
                endo=EndomorphismDescriptor("IV", 2 * n, n, 1, cm_traces=alt),
            )
        )
    return [p for p in shapes if realizable(p).realizable is True]


def test_ac09_prime_and_unit_totality():
    with budget("AC9 n=1 and prime n always fill the Lefschetz group", 5.0):
        values = [1] + [p for p in primes_up_to(97)]
        total = 0
        for n in values:
            for profile in _prime_shapes(n):
                outcome = classify(profile)
                assert outcome.status == "determined", (n, profile)
                assert len(outcome.candidates) == 1
                assert outcome.candidates[0].group == lefschetz_group(profile)
                total += 1
        assert total >= 100


def test_ac10_2p_grid():
    with budget("AC10 the n=2p grid for p in {3,5,7}", 1.0):
        golden = load("thm_2p_grid.json")
        assert len(golden["rows"]) == 61
        for row in golden["rows"]:
            profile = profile_from_json(row["profile"])
            subfields = [
                SubfieldDescriptor.from_json(s) for s in row["subfields"]
            ] or None
            outcome = classify(profile, subfields)
            assert outcome.status == "determined"
            assert len(outcome.candidates) == 1
            assert outcome.candidates[0].group.to_json() == row["group"]
            endo = profile.endo
            if endo.albert_type in ("I", "II", "III"):
                assert outcome.candidates[0].group == lefschetz_group(profile)
            elif endo.deg_L == 4 * row["p"]:
                assert row["group"]["family"] == "SU_{L/E}"
                assert group_rank(outcome.candidates[0].group) == 2 * row["p"] - 1
            else:
                assert row["group"]["family"] == "SU(B)"


def test_ac11_consequences_grid():
    with budget("AC11 consequences grid (9 profiles)", 1.0):
        from hodgekit.consequences import AbelianProfile, hodge_status, murty_equal

        golden = load("consequences_grid.json")
        assert len(golden["rows"]) == 9
        proven_seen = 0
        for row in golden["rows"]:
            endo_profile = profile_from_json(
                {"weight": 1, "n": row["dim"], "endo": row["endo"]}
            )
            ap = AbelianProfile(
                dim=row["dim"],
                endo=endo_profile.endo,
                subfields=tuple(
                    SubfieldDescriptor.from_json(s) for s in row["subfields"]
                ),
            )
            equal, _ = murty_equal(ap)
            status = hodge_status(ap)
            assert equal == row["murty_equal"]
            assert status.to_json() == row["status"]
            if status.hc_all_powers == "proven":
                proven_seen += 1
                assert ap.endo.albert_type in ("I", "II")
        assert proven_seen >= 2


def test_golden_generator_rewrites_every_golden_byte_for_byte(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "make_goldens", GOLDEN / "make_goldens.py"
    )
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    monkeypatch.setattr(generator, "HERE", tmp_path)
    for name in dir(generator):
        if name.startswith("make_"):
            getattr(generator, name)()
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in GOLDEN.glob("*.json"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
