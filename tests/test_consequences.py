import itertools
import random

import pytest

from hodgekit.classifier import (
    InconsistentSubfieldError,
    NotRealizableError,
    SubfieldDescriptor,
    classify,
)
from hodgekit.consequences import (
    OPEN,
    PROVEN,
    AbelianProfile,
    hodge_status,
    murty_equal,
)
from hodgekit.core import EndomorphismDescriptor, HodgeProfile, InvalidProfileError

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


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _trace_lists(deg_F, total, rng, cap=8):
    """No traces, then every list of deg_F pairs summing to total, or a
    seeded sample of cap of them with the balanced and alternating lists."""
    lists = list(itertools.product(range(total + 1), repeat=deg_F))
    if len(lists) > cap:
        lists = rng.sample(lists, cap) + [(total // 2,) * deg_F, (0, 1) * (deg_F // 2)]
    return [None] + [tuple((a, total - a) for a in firsts) for firsts in lists]


def _endos(p, rng):
    """Every weight-1 shape at n = 2p (disc_one varied on types II/III),
    with trace lists on type IV, plus a q = 2 type IV shape that is refused."""
    n = 2 * p
    for d in _divisors(n):
        yield EndomorphismDescriptor("I", d, d, 1)
    for t, f, disc in itertools.product(("II", "III"), (1, p), (None, False, True)):
        yield EndomorphismDescriptor(t, 4 * f, f, 2, disc_one=disc)
    for f in _divisors(n):
        for traces in _trace_lists(f, n // f, rng):
            yield EndomorphismDescriptor("IV", 2 * f, f, 1, cm_traces=traces)
    yield EndomorphismDescriptor("IV", 8, 1, 2)


def _inventories(endo):
    """Every ordered inventory of 0-2 entries from a pool of degree-2
    fields (each balance and Galois flag) and fields of degree 4 and [L:Q]."""
    pool = [SubfieldDescriptor(2, b, g) for b in (True, False) for g in (None, True, False)]
    pool += [
        SubfieldDescriptor(e, b) for e in sorted({4, endo.deg_L} - {2}) for b in (True, False)
    ]
    yield ()
    for k in (1, 2):
        yield from itertools.product(pool, repeat=k)


def _route(answer, dim, endo, subfields):
    """One route's answer, or the refusal it ends in (type and message)."""
    try:
        return answer(AbelianProfile(dim, endo, subfields))
    except ValueError as exc:
        return "refused", type(exc).__name__, str(exc)


def _ledger(profile):
    return murty_equal(profile), hodge_status(profile)


def test_the_ledger_matches_the_oracle_on_every_n_2p_inventory():
    rng = random.Random(17)
    reached = set()
    for p in (3, 5):
        for endo in _endos(p, rng):
            for subs in _inventories(endo):
                expected = _route(abelian_case, 2 * p, endo, subs)
                got = _route(_ledger, 2 * p, endo, subs)
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
                    assert status.ghc_reduction is (
                        case == 2 and endo.deg_L != 4 * p
                    )
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


def test_the_ledger_refuses_exactly_what_classify_refuses():
    """At dim 2p type IV has q = 1, so every ledger input is classified by
    the n = 2p rule, which cross-checks every subfield: the ledger needs no
    check of its own.  A refused realizability is renamed, nothing else."""
    cases, refusals = 0, set()
    for dim in (6, 10, 14):
        for g in _divisors(dim):
            pairs = [(a, dim // g - a) for a in range(dim // g + 1)]
            multisets = itertools.combinations_with_replacement(pairs, g)
            lists = itertools.islice(multisets, 6)
            pool = [
                SubfieldDescriptor(e, b)
                for e in _divisors(2 * g)
                if e % 2 == 0
                for b in (True, False)
            ]
            inventories = [()] + [
                subs for k in (1, 2) for subs in itertools.product(pool, repeat=k)
            ]
            for traces in (None, *lists):
                endo = EndomorphismDescriptor("IV", 2 * g, g, 1, cm_traces=traces)
                for subs in inventories:
                    cases += 1
                    try:
                        classify(HodgeProfile(1, dim, endo), subs)
                        expected = None
                    except NotRealizableError as exc:
                        message = f"endomorphism data not realizable at weight 1: {exc}"
                        expected = InvalidProfileError, message
                    except ValueError as exc:
                        expected = type(exc), str(exc)
                    try:
                        AbelianProfile(dim, endo, subs)
                        got = None
                    except ValueError as exc:
                        got = type(exc), str(exc)
                    assert got == expected, (dim, endo, subs)
                    refusals.add(expected and expected[0])
    assert cases == 2562
    assert refusals == {None, InvalidProfileError, InconsistentSubfieldError}
