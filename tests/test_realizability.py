import re

import pytest

from hodgekit.core import InvalidProfileError
from hodgekit.lefschetz import lefschetz_group
from hodgekit.realizability import (
    EVEN_CASES,
    ODD_CASES,
    is_exceptional,
    realizable,
)
import universe
from oracles import catalog_scan
from universe import prof


def test_catalog_sizes():
    assert len(ODD_CASES) == 5
    assert len(EVEN_CASES) == 7


def test_odd_type_iii_m1():
    match = is_exceptional(prof("III", 4, 1, 2, w=1, n=2))
    assert match is not None and match.case.index == 1 and not match.conditional


def test_even_type_i_m2():
    match = is_exceptional(prof("I", 2, 2, 1, w=2, n=2))
    assert match is not None and match.case.index == 6


def test_odd_type_i_never_exceptional():
    for n, d in [(1, 1), (2, 1), (2, 2), (4, 2), (8, 2)]:
        assert is_exceptional(prof("I", d, d, 1, w=1, n=n)) is None


def test_even_iv_all_ones_is_case_4():
    p = prof("IV", 4, 2, 1, w=2, n=4, traces=[(1, 1), (1, 1)])
    match = is_exceptional(p)
    assert match is not None and match.case.index == 4 and not match.conditional


def test_iv_zero_product_escape_for_m_q_one():
    # CM-type data with all lopsided pairs is fine when m=q=1
    p = prof("IV", 6, 3, 1, w=1, n=3, traces=[(1, 0), (1, 0), (0, 1)])
    assert realizable(p).realizable is True


def test_iv_zero_product_exceptional_otherwise():
    p = prof("IV", 4, 2, 1, w=1, n=4, traces=[(2, 0), (0, 2)])
    match = is_exceptional(p)
    assert match is not None and match.case.index == 3


def test_iv_cases_parity_independent():
    shapes = [
        ("IV", 4, 2, 1, 4, ((2, 0), (0, 2))),  # case 3
        ("IV", 4, 2, 1, 4, ((1, 1), (1, 1))),  # case 4
        ("IV", 8, 1, 2, 4, ((1, 1),)),  # case 5
    ]
    for t, dL, dF, q, n, traces in shapes:
        odd = is_exceptional(prof(t, dL, dF, q, w=1, n=n, traces=traces))
        even = is_exceptional(prof(t, dL, dF, q, w=2, n=n, traces=traces))
        assert odd is not None and even is not None
        assert odd.case.index == even.case.index
        assert odd.case.description == even.case.description


def test_disc_dependent_case_is_conditional_without_flag():
    p = prof("III", 4, 1, 2, w=1, n=4)  # m=2, no disc flag
    match = is_exceptional(p)
    assert match is not None and match.conditional and match.missing == "disc_one"
    verdict = realizable(p)
    assert verdict.realizable is None
    assert realizable(prof("III", 4, 1, 2, w=1, n=4, disc=True)).realizable is False
    assert realizable(prof("III", 4, 1, 2, w=1, n=4, disc=False)).realizable is True


def test_traces_missing_is_conditional():
    p = prof("IV", 4, 2, 1, w=1, n=4)
    verdict = realizable(p)
    assert verdict.realizable is None
    assert verdict.case is not None and verdict.case.missing == "cm_traces"


def test_even_case_seven_needs_disc():
    base = dict(t="I", deg_L=2, deg_F=2, q=1, w=2, n=4)
    assert (
        realizable(prof(base["t"], 2, 2, 1, w=2, n=4, disc=True)).realizable is False
    )
    assert (
        realizable(prof(base["t"], 2, 2, 1, w=2, n=4, disc=False)).realizable is True
    )
    assert realizable(prof(base["t"], 2, 2, 1, w=2, n=4)).realizable is None


def test_realizable_reports_violations():
    verdict = realizable(prof("I", 4, 4, 1, w=2, n=3))
    assert verdict.realizable is False
    assert verdict.violations


def test_is_exceptional_requires_valid_profile():
    # refused with the violations, in the text lefschetz_group gives
    p = prof("I", 3, 3, 1, w=1, n=4)
    with pytest.raises(InvalidProfileError) as lef:
        lefschetz_group(p)
    with pytest.raises(InvalidProfileError, match=f"^{re.escape(str(lef.value))}$"):
        is_exceptional(p)


def test_definite_match_wins_over_conditional():
    # m=2 CM field without disc flag but with all-ones traces: case 4 is
    # definite even though nothing about the profile is pending.
    p = prof("IV", 4, 2, 1, w=2, n=4, traces=[(1, 1), (1, 1)])
    match = is_exceptional(p)
    assert match is not None and not match.conditional and match.case.index == 4


def test_keyed_catalog_answers_as_the_whole_catalog_scan():
    hits = set()
    profiles = list(universe.profiles())
    for p in profiles:
        expected = catalog_scan(p)
        match = is_exceptional(p)
        verdict = realizable(p)
        if expected is None:
            assert match is None and verdict == (True, None, ()), p
            continue
        parity, index, missing = expected
        cases = ODD_CASES if parity == "odd" else EVEN_CASES
        assert match == (cases[index - 1], missing is not None, missing), p
        assert verdict == (None if missing else False, match, ()), p
        hits.add((parity, index, missing is None))
    # every entry is hit outright; without traces, case 3 is always the first
    # Type IV entry that could match, so cases 4 and 5 are never pending
    assert len(profiles) == 11_280
    assert {(parity, i) for parity, i, definite in hits if definite} == {
        ("odd", i) for i in range(1, 6)
    } | {("even", i) for i in range(1, 8)}
    assert {(parity, i) for parity, i, definite in hits if not definite} == {
        ("odd", 2), ("odd", 3), ("even", 2), ("even", 3), ("even", 7),
    }
