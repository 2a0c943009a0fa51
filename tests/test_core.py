import json

import pytest
from hypothesis import given, strategies as st

from hodgekit.core import (
    EndomorphismDescriptor,
    GroupExpr,
    HodgeProfile,
    profile_from_json,
    profile_to_json,
    validate_profile,
)


def prof(t, deg_L, deg_F, q, w, n, traces=None, disc=None):
    return HodgeProfile(
        weight=w,
        n=n,
        endo=EndomorphismDescriptor(
            albert_type=t,
            deg_L=deg_L,
            deg_F=deg_F,
            q=q,
            cm_traces=traces,
            disc_one=disc,
        ),
    )


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
