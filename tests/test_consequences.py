import pytest

from hodgekit.classifier import (
    InconsistentSubfieldError,
    NotRealizableError,
    SubfieldDescriptor,
)
from hodgekit.consequences import (
    OPEN,
    PROVEN,
    AbelianProfile,
    hodge_status,
    murty_equal,
)
from hodgekit.core import EndomorphismDescriptor, InvalidProfileError
from hodgekit.numth import is_prime

from oracles import abelian_case


def ap(t, deg_L, deg_F, q, dim=6, traces=None, subfields=()):
    return AbelianProfile(
        dim=dim,
        endo=EndomorphismDescriptor(t, deg_L, deg_F, q, cm_traces=traces),
        subfields=tuple(subfields),
    )


def test_dimension_must_be_twice_odd_prime():
    with pytest.raises(InvalidProfileError):
        ap("I", 1, 1, 1, dim=8)
    with pytest.raises(InvalidProfileError):
        ap("I", 1, 1, 1, dim=4)


def test_endo_must_be_realizable_at_weight_one():
    # a type III quaternion algebra with m=1 cannot occur at odd weight
    with pytest.raises(InvalidProfileError):
        AbelianProfile(dim=6, endo=EndomorphismDescriptor("III", 12, 3, 2))
    # m=3 (deg_L=4) is fine
    assert ap("III", 4, 1, 2).p == 3


def test_data_classify_refuses_is_refused():
    # a balanced quadratic field at n = 2p = 6 leaves R_{F/Q}SU(B,-) of
    # rank 3 below the ceil(log2(2n)) = 4 floor for commutative L: no such
    # variety exists, so there is no Murty equality to report
    balanced = SubfieldDescriptor(deg_E=2, balanced=True)
    with pytest.raises(InconsistentSubfieldError, match="rank 3 < 4"):
        ap("IV", 6, 3, 1, traces=[(2, 0), (1, 1), (2, 0)], subfields=[balanced])
    # without the subfield the same algebra is answered
    assert ap("IV", 6, 3, 1, traces=[(2, 0), (1, 1), (2, 0)]).p == 3


def test_murty_types_i_ii_iii():
    for t, dL, dF in [("I", 1, 1), ("I", 2, 2), ("II", 4, 1), ("III", 4, 1)]:
        q = 1 if t == "I" else 2
        equal, rationale = murty_equal(ap(t, dL, dF, q))
        assert equal is True
        assert "type " + t in rationale


def test_murty_type_iv_with_balanced_field():
    profile = ap(
        "IV", 2, 1, 1, traces=((3, 3),), subfields=[SubfieldDescriptor(2, True)]
    )
    equal, rationale = murty_equal(profile)
    assert equal is True and "balanced" in rationale


def test_murty_type_iv_4p_needs_galois():
    traces = tuple(((1, 0) if i % 2 else (0, 1)) for i in range(6))
    with_galois = ap(
        "IV", 12, 6, 1, traces=traces,
        subfields=[SubfieldDescriptor(2, True, galois_L=True)],
    )
    assert murty_equal(with_galois)[0] is True
    without = ap(
        "IV", 12, 6, 1, traces=traces, subfields=[SubfieldDescriptor(2, True)]
    )
    assert murty_equal(without)[0] is None


def test_murty_unknown_without_field():
    profile = ap("IV", 2, 1, 1, traces=((2, 4),))
    equal, rationale = murty_equal(profile)
    assert equal is None and "unknown" in rationale


def test_status_type_i_ii_proven():
    for t, dL, dF, q in [("I", 1, 1, 1), ("II", 4, 1, 2)]:
        status = hodge_status(ap(t, dL, dF, q))
        assert status.divisor_weil_generated is True
        assert status.hc_all_powers == PROVEN
        assert status.ghc_reduction is True


def test_status_type_iii():
    status = hodge_status(ap("III", 4, 1, 2))
    assert status.divisor_weil_generated is True
    assert status.hc_all_powers == OPEN
    assert status.ghc_reduction is True


def test_status_type_iv_reduction_depends_on_degree():
    small = hodge_status(
        ap("IV", 2, 1, 1, traces=((3, 3),), subfields=[SubfieldDescriptor(2, True)])
    )
    assert small.divisor_weil_generated is True
    assert small.hc_all_powers == OPEN
    assert small.ghc_reduction is True
    traces = tuple(((1, 0) if i % 2 else (0, 1)) for i in range(10))
    big = AbelianProfile(
        dim=10,
        endo=EndomorphismDescriptor("IV", 20, 10, 1, cm_traces=traces),
        subfields=(SubfieldDescriptor(2, True, galois_L=True),),
    )
    status = hodge_status(big)
    assert status.divisor_weil_generated is True
    assert status.ghc_reduction is False  # [L:Q] = 4p is excluded


def test_status_type_iv_unknown():
    status = hodge_status(ap("IV", 2, 1, 1, traces=((2, 4),)))
    assert status.divisor_weil_generated is None
    assert status.hc_all_powers == OPEN
    assert status.ghc_reduction is False


def test_hc_proven_only_with_divisor_weil_and_type_i_ii():
    profiles = [
        ap("I", 1, 1, 1),
        ap("II", 4, 1, 2),
        ap("III", 4, 1, 2),
        ap("IV", 2, 1, 1, traces=((3, 3),), subfields=[SubfieldDescriptor(2, True)]),
        ap("IV", 2, 1, 1, traces=((2, 4),)),
    ]
    for profile in profiles:
        status = hodge_status(profile)
        if status.hc_all_powers == PROVEN:
            assert status.divisor_weil_generated is True
            assert profile.endo.albert_type in ("I", "II")


def test_murty_true_for_every_type_i_ii_iii():
    for t, dL, dF in [("I", 1, 1), ("I", 3, 3), ("II", 4, 1), ("III", 4, 1)]:
        q = 1 if t == "I" else 2
        assert murty_equal(ap(t, dL, dF, q))[0] is True


# --- the ledger against the oracle's own reading of the inventory ---------


def _route(answer, dim, endo, subfields):
    """One route's answer, or the refusal it ends in (type and message)."""
    try:
        return answer(AbelianProfile(dim, endo, subfields))
    except ValueError as exc:
        return "refused", type(exc).__name__, str(exc)


def _ledger(profile):
    return murty_equal(profile), hodge_status(profile)


def _ledger_inputs(verdicts):
    """The universe verdicts an abelian variety of dimension 2p has:
    weight 1, n = 2p and an inventory."""
    inputs = [
        v for v in verdicts
        if v.profile.weight == 1 and v.subfields is not None
        and v.profile.n % 4 == 2 and is_prime(v.profile.n // 2)
    ]
    assert len(inputs) == 11_778
    return inputs


def test_the_ledger_matches_the_oracle_on_every_n_2p_inventory(verdicts):
    reached = set()
    for profile, subs, _ in _ledger_inputs(verdicts):
        dim, endo = profile.n, profile.endo
        expected = _route(abelian_case, dim, endo, subs)
        got = _route(_ledger, dim, endo, subs)
        if expected[0] == "refused" or got[0] == "refused":
            assert got == expected, (endo, subs)
            reached.add(expected[1])
            continue
        case, desc = expected
        (equal, why), status = got
        assert equal is (None if case is None else True), (endo, subs)
        assert why.startswith(desc + ": "), (endo, subs, why)
        if endo.albert_type == "IV":
            assert status.divisor_weil_generated is equal
            assert status.rationale.startswith(desc + "; ")
            assert status.ghc_reduction is (case == 2 and endo.deg_L != 2 * dim)
        reached.add((desc, status.ghc_reduction))
    assert reached >= {
        "InvalidProfileError",
        "InconsistentSubfieldError",
        ("type I endomorphism algebra", True),
        ("type II endomorphism algebra", True),
        ("type III endomorphism algebra", True),
        ("type IV with a balanced imaginary quadratic field in W(A)", True),
        ("type IV with a balanced imaginary quadratic field in W(A)", False),
        ("type IV with [L:Q]=4p but the Galois hypothesis is not affirmed", False),
        ("type IV without a balanced imaginary quadratic field", False),
    }


def test_the_ledger_refuses_exactly_what_classify_refuses(verdicts):
    """At dim 2p type IV has q = 1, so every ledger input is classified by
    the n = 2p rule, which cross-checks every subfield: the ledger needs no
    check of its own.  A refused realizability is renamed, nothing else."""
    refusals = set()
    for profile, subs, out in _ledger_inputs(verdicts):
        if isinstance(out, NotRealizableError):
            message = f"endomorphism data not realizable at weight 1: {out}"
            expected = InvalidProfileError, message
        elif isinstance(out, ValueError):
            expected = type(out), str(out)
        else:
            expected = None
        try:
            AbelianProfile(profile.n, profile.endo, subs)
            got = None
        except ValueError as exc:
            got = type(exc), str(exc)
        assert got == expected, (profile, subs)
        refusals.add(expected and expected[0])
    assert refusals == {None, InvalidProfileError, InconsistentSubfieldError}
