import inspect
import json
import re

import pytest
from hypothesis import given, strategies as st

from hodgekit.core import (
    EndomorphismDescriptor,
    GroupExpr,
    InvalidProfileError,
    profile_from_json,
    profile_to_json,
    validate_profile,
)

from universe import prof


def test_rational_profile_valid():
    assert validate_profile(prof("I", 1, 1, 1, w=1, n=2)) == []


def test_degree_not_dividing_2n():
    violations = validate_profile(prof("I", 4, 4, 1, w=2, n=3))
    assert "deg_l_divides_2n" in {v.code for v in violations}


@pytest.mark.parametrize(
    "field, value",
    [("weight", 1.0), ("n", 6.0), ("n", True), ("n", "6"), ("deg_L", 1.0),
     ("deg_F", False), ("q", "1")],
)
def test_a_number_that_is_not_an_int_is_the_only_violation(field, value):
    numbers = {"t": "I", "deg_L": 1, "deg_F": 1, "q": 1, "w": 1, "n": 6}
    numbers[{"weight": "w"}.get(field, field)] = value
    violations = validate_profile(prof(**numbers))
    assert violations == [
        ("integer_fields", f"{field} must be an integer, got {value!r}")
    ]


def test_classify_refuses_a_number_that_is_not_an_int():
    from hodgekit.classifier import NotRealizableError, classify

    for n in (6.0, True, "6"):
        with pytest.raises(NotRealizableError, match="n must be an integer"):
            classify(prof("I", 1, 1, 1, w=1, n=n))


def test_type_iv_trace_arithmetic():
    p = prof("IV", 2, 1, 1, w=1, n=4, traces=[(1, 3)])
    assert validate_profile(p) == []
    assert p.m == 4


def test_bad_trace_sum_detected():
    p = prof("IV", 2, 1, 1, w=1, n=4, traces=[(1, 2)])
    assert {v.code for v in validate_profile(p)} == {"traces_pair_sum"}


def test_type_i_needs_deg_f_dividing_n():
    violations = validate_profile(prof("I", 4, 4, 1, w=1, n=6))
    codes = {v.code for v in violations}
    assert "deg_f_divides_n" in codes
    # 4 | 12, so the 2n divisibility itself is fine
    assert "deg_l_divides_2n" not in codes


def test_quaternion_degree_shape():
    assert validate_profile(prof("II", 4, 1, 2, w=1, n=4)) == []
    bad = validate_profile(prof("II", 6, 1, 2, w=1, n=6))
    assert "type_ii_iii_degrees" in {v.code for v in bad}


def test_traces_only_for_type_iv():
    p = prof("I", 1, 1, 1, w=1, n=2, traces=[(1, 1)])
    assert "traces_type_iv_only" in {v.code for v in validate_profile(p)}


def test_trace_total_identity():
    # sum over pairs of (n_sigma + n_sigma_bar) = m*q*g whenever valid
    p = prof("IV", 8, 1, 2, w=1, n=8, traces=[(3, 1)])
    assert validate_profile(p) == []
    total = sum(a + b for a, b in p.endo.cm_traces)
    assert total == p.m * p.endo.q * p.g


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=12))
def test_validate_is_deterministic(n, w):
    p = prof("I", 2, 2, 1, w=w, n=n)
    first = validate_profile(p)
    second = validate_profile(p)
    assert [v.code for v in first] == [v.code for v in second]


def test_profile_json_round_trip():
    p = prof("IV", 4, 2, 1, w=3, n=4, traces=[(2, 0), (1, 1)], disc=None)
    data = profile_to_json(p)
    assert list(data) == ["weight", "n", "endo"]
    assert list(data["endo"]) == ["type", "deg_L", "deg_F", "q", "cm_traces"]
    again = profile_from_json(json.loads(json.dumps(data)))
    assert again == p


def test_unknown_fields_rejected():
    with pytest.raises(ValueError, match="unknown profile fields"):
        profile_from_json({"weight": 1, "n": 1, "endo": {}, "extra": 1})
    with pytest.raises(ValueError, match="unknown endo fields"):
        profile_from_json(
            {
                "weight": 1,
                "n": 1,
                "endo": {"type": "I", "deg_L": 1, "deg_F": 1, "q": 1, "x": 2},
            }
        )


def test_missing_fields_rejected():
    with pytest.raises(ValueError, match="missing required field"):
        profile_from_json({"weight": 1, "n": 1})
    with pytest.raises(ValueError, match="must be an integer"):
        profile_from_json(
            {"weight": True, "n": 1, "endo": {"type": "I", "deg_L": 1, "deg_F": 1, "q": 1}}
        )


def test_disc_one_must_be_a_bool():
    endo = {"type": "III", "deg_L": 4, "deg_F": 1, "q": 2, "disc_one": "yes"}
    with pytest.raises(ValueError, match="disc_one must be a boolean"):
        profile_from_json({"weight": 1, "n": 4, "endo": endo})


_IV = {"type": "IV", "deg_L": 2, "deg_F": 1, "q": 1}


@pytest.mark.parametrize(
    "data, message",
    [
        # the endo is read before the weight and n
        (
            {"weight": 1.0, "n": "2", "endo": dict(_IV, cm_traces=[[True, 1]])},
            "cm_traces must be an integer, got True",
        ),
        ({"endo": dict(_IV, type=1, deg_L=1.5)}, "type must be a string, got 1"),
        (
            {"endo": dict(_IV, deg_L="x", cm_traces=[[1, 2, 3]])},
            "cm_traces must be a list of [int, int] pairs",
        ),
        (
            {"endo": dict(_IV, deg_L=1.5, disc_one="yes", cm_traces=[[True, 1]])},
            "deg_L must be an integer, got 1.5",
        ),
        (
            {"endo": dict(_IV, disc_one="yes", cm_traces=[[True, 1]])},
            "disc_one must be a boolean",
        ),
        # unknown fields, all of them and sorted, before a missing one
        ({"z": 0, "a": 0}, "unknown profile fields: ['a', 'z']"),
        ({"endo": {"type": "IV", "x": 0}}, "unknown endo fields: ['x']"),
    ],
)
def test_the_first_fault_in_reading_order_is_refused(data, message):
    data = {"weight": 1, "n": 2, **data}
    with pytest.raises(ValueError) as info:
        profile_from_json(data)
    assert str(info.value) == message


def test_a_trace_entry_is_refused_before_a_pair_of_the_wrong_length():
    with pytest.raises(ValueError) as info:
        EndomorphismDescriptor("IV", 2, cm_traces=[(1.5, 1), (1, 2, 3)])
    assert str(info.value) == "cm_traces must be an integer, got 1.5"


def test_group_expr_equality_and_labels():
    a = GroupExpr("Sp", param=3)
    b = GroupExpr("Sp", param=3, rep="standard")
    assert a == b
    assert a.label() == "Sp(6)"
    assert GroupExpr("U_L", param=4).label() == "U_L"
    assert GroupExpr("Sp(B)", param=1, base_degree=2).label() == "R_{F/Q}Sp(L,-)"
    wedge = GroupExpr("SU(2^k)", param=3, rep="exterior_power", rep_param=4)
    assert wedge.label() == "SU(2^3)"
    assert GroupExpr.from_json(wedge.to_json()) == wedge


def test_group_expr_validation():
    with pytest.raises(ValueError):
        GroupExpr("nope", param=1)
    with pytest.raises(ValueError):
        GroupExpr("Sp")  # missing param
    # torus rep normalizes to none
    assert GroupExpr("U_L", param=2, rep="standard").rep == "none"


def test_trace_violations_come_in_check_order():
    # m = 2 and q = 1, so each pair must sum to 2; the negative entry is
    # reported once, before every pair sum
    p = prof("IV", 6, 3, 1, w=1, n=6, traces=[(-1, 2), (2, 1), (-3, -1)])
    assert [v.code for v in validate_profile(p)] == [
        "traces_nonnegative",
        "traces_pair_sum",
        "traces_pair_sum",
        "traces_pair_sum",
    ]
    assert validate_profile(p)[1].message == "pair 0 sums to 1, expected mq=2"


# One profile per violation code, each violating that invariant alone.
ONE_VIOLATION = [
    ("integer_fields", prof("I", 1, 1, 1, w=1.0, n=2)),
    ("weight_positive", prof("I", 1, 1, 1, w=0, n=2)),
    ("n_positive", prof("I", 1, 1, 1, w=1, n=0)),
    ("albert_type", prof("V", 1, 1, 1, w=1, n=2)),
    ("degrees_positive", prof("I", 0, 1, 1, w=1, n=2)),
    ("type_i_q", prof("I", 1, 1, 2, w=1, n=2)),
    ("type_i_degrees", prof("I", 2, 1, 1, w=1, n=2)),
    ("type_ii_iii_q", prof("II", 4, 1, 1, w=1, n=2)),
    ("type_ii_iii_degrees", prof("III", 8, 1, 2, w=1, n=4)),
    ("type_iv_degrees", prof("IV", 4, 1, 1, w=1, n=2)),
    ("deg_l_divides_2n", prof("II", 4, 1, 2, w=1, n=1)),
    ("deg_f_divides_n", prof("I", 2, 2, 1, w=1, n=1)),
    ("traces_type_iv_only", prof("I", 1, 1, 1, w=1, n=2, traces=[(1, 1)])),
    ("traces_length", prof("IV", 2, 1, 1, w=1, n=2, traces=[(1, 1), (1, 1)])),
    ("traces_pair_sum", prof("IV", 2, 1, 1, w=1, n=2, traces=[(1, 2)])),
    ("traces_nonnegative", prof("IV", 2, 1, 1, w=1, n=2, traces=[(-1, 3)])),
]


def test_every_violation_code_has_a_case():
    source = inspect.getsource(validate_profile)
    codes = [code for code, _ in ONE_VIOLATION]
    assert sorted(codes) == sorted(set(re.findall(r'Violation\("(\w+)"', source)))
    assert len(codes) == 16


@pytest.mark.parametrize("code, profile", ONE_VIOLATION, ids=[c for c, _ in ONE_VIOLATION])
def test_each_violation_code_is_reported_alone(code, profile):
    assert [v.code for v in validate_profile(profile)] == [code]


def test_m_refuses_a_degree_that_does_not_divide_2n():
    with pytest.raises(InvalidProfileError, match=r"^\[L:Q\]=4 does not divide 2n=6$"):
        prof("I", 4, 4, 1, w=2, n=3).m
    with pytest.raises(InvalidProfileError, match=r"^\[L:Q\]=0 does not divide 2n=4$"):
        prof("I", 0, 1, 1, w=1, n=2).m
