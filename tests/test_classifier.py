import collections
import itertools
import math
import re
import sys
import time

import pytest

from hodgekit.classifier import (
    _orthogonal_factors,
    CONDITIONAL,
    DETERMINED,
    OUT_OF_SCOPE,
    InconsistentSubfieldError,
    NotRealizableError,
    SubfieldDescriptor,
    classify,
    exclude_sl2_product,
    rank_threshold,
    su_constraint,
    table3,
)
from hodgekit.core import EndomorphismDescriptor, GroupExpr, HodgeProfile
from hodgekit.lefschetz import group_dim, group_rank, lefschetz_group
from hodgekit.numth import _central_binomial, _rows_of_dimension, central_binomial_solve
from hodgekit.rootsys import ORTHOGONAL, admissible_factors, fundamental_weight

from universe import prof


def labels(outcome):
    return [c.group.label() for c in outcome.candidates]


# --- special half-dimensions ------------------------------------------


def test_n1_is_lefschetz():
    out = classify(prof("I", 1, 1, 1, w=1, n=1))
    assert out.status == DETERMINED and labels(out) == ["Sp(2)"]
    out = classify(prof("IV", 2, 1, 1, w=2, n=1, traces=((1, 0),)))
    assert out.status == DETERMINED and labels(out) == ["U_L"]


def test_prime_is_lefschetz():
    out = classify(prof("I", 1, 1, 1, w=1, n=3))
    assert out.applied_rule == "n=prime" and labels(out) == ["Sp(6)"]
    out = classify(prof("IV", 6, 3, 1, w=2, n=3, traces=((1, 0), (0, 1), (1, 0))))
    assert labels(out) == ["U_L"]
    out = classify(prof("II", 4, 1, 2, w=1, n=2))
    assert labels(out) == ["Sp(L,-)"]


def test_n4_rational_both_parities():
    odd = classify(prof("I", 1, 1, 1, w=1, n=4))
    assert odd.status == DETERMINED
    assert labels(odd) == ["Sp(8)", "SL(2)xSO(4)"]
    assert all(c.occurs == "proven" for c in odd.candidates)
    even = classify(prof("I", 1, 1, 1, w=2, n=4))
    assert labels(even) == ["SO(8)", "SO(7)"]
    assert even.candidates[1].group.rep == "spin"


def test_n4_type_iv_quadratic_split():
    coprime = classify(prof("IV", 2, 1, 1, w=2, n=4, traces=((1, 3),)))
    assert labels(coprime) == ["U(B,-)"]
    balanced = classify(prof("IV", 2, 1, 1, w=1, n=4, traces=((2, 2),)))
    assert labels(balanced) == ["SU(B,-)"]
    missing = classify(prof("IV", 2, 1, 1, w=1, n=4))
    assert missing.status == CONDITIONAL
    assert labels(missing) == ["U(B,-)", "SU(B,-)"]


def test_n4_type_iv_degree8():
    traces = ((1, 0), (0, 1), (1, 0), (0, 1))
    base = prof("IV", 8, 4, 1, w=1, n=4, traces=traces)
    no_field = classify(base, subfields=[])
    assert labels(no_field) == ["U_L"] and no_field.status == DETERMINED
    with_field = classify(base, subfields=[SubfieldDescriptor(2, True)])
    assert labels(with_field) == ["SU_{L/E}"]
    assert group_rank(with_field.candidates[0].group) == 3
    unknown = classify(base, subfields=None)
    assert unknown.status == CONDITIONAL and len(unknown.candidates) == 2


def test_2p_type_i_and_quaternion_single():
    for t, dL, dF, q in [("I", 1, 1, 1), ("I", 2, 2, 1), ("II", 4, 1, 2), ("III", 4, 1, 2)]:
        for w in (1, 2):
            p = prof(t, dL, dF, q, w=w, n=6, disc=False)
            out = classify(p)
            assert out.status == DETERMINED, (t, w)
            assert out.candidates == (
                out.candidates[0],
            ) and out.candidates[0].group == lefschetz_group(p)


def test_2p_type_iv_su_branches():
    # deg_L = 2: the full special-unitary form of SL(2p)
    p6 = prof("IV", 2, 1, 1, w=1, n=6, traces=((3, 3),))
    out = classify(p6, subfields=[SubfieldDescriptor(2, True)])
    assert out.status == DETERMINED
    grp = out.candidates[0].group
    assert grp.family == "SU(B)" and grp.param == 6 and grp.base_degree == 1
    # deg_L = 4: restricted special-unitary form of SL(p)
    p4 = prof("IV", 4, 2, 1, w=1, n=6, traces=((1, 2), (2, 1)))
    out = classify(p4, subfields=[SubfieldDescriptor(2, True)])
    grp = out.candidates[0].group
    assert grp.family == "SU(B)" and grp.param == 3 and grp.base_degree == 2
    # deg_L = 4p with the Galois flag: the relative-norm-one torus
    traces = tuple(((1, 0) if i % 2 else (0, 1)) for i in range(6))
    p12 = prof("IV", 12, 6, 1, w=1, n=6, traces=traces)
    out = classify(p12, subfields=[SubfieldDescriptor(2, True, galois_L=True)])
    grp = out.candidates[0].group
    # the ambient torus has rank [F:Q] = 2p = 6; the subtorus drops by 1
    assert grp.family == "SU_{L/E}" and group_rank(grp) == 2 * 3 - 1


def test_2p_type_iv_galois_unknown_is_conditional():
    traces = tuple(((1, 0) if i % 2 else (0, 1)) for i in range(6))
    p12 = prof("IV", 12, 6, 1, w=1, n=6, traces=traces)
    out = classify(p12, subfields=[SubfieldDescriptor(2, True)])
    assert out.status == CONDITIONAL


def test_2p_type_iv_no_balanced_field_out_of_scope():
    p6 = prof("IV", 2, 1, 1, w=1, n=6, traces=((2, 4),))
    out = classify(p6, subfields=[])
    assert out.status == OUT_OF_SCOPE
    assert labels(out) == ["U(B,-)"]
    assert out.candidates[0].occurs == "possible"


def test_2p_inconsistency_guard():
    # p=3, [L:Q]=2p=6 with a balanced quadratic subfield: the concluded
    # group would have rank 3 < ceil(log2(12)) = 4, so no such simple
    # structure exists and the data must be rejected.
    traces = ((1, 1), (2, 0), (0, 2))
    p = prof("IV", 6, 3, 1, w=1, n=6, traces=traces)
    with pytest.raises(InconsistentSubfieldError):
        classify(p, subfields=[SubfieldDescriptor(2, True)])
    # for p = 5 and 7 the same shape is fine
    for p_val in (5, 7):
        traces = tuple(
            ((1, 1) if i else (2, 0)) if i != 1 else (0, 2) for i in range(p_val)
        )
        pp = prof("IV", 2 * p_val, p_val, 1, w=1, n=2 * p_val, traces=traces)
        out = classify(pp, subfields=[SubfieldDescriptor(2, True)])
        assert out.status == DETERMINED
        assert group_rank(out.candidates[0].group) == p_val


# --- general rules -----------------------------------------------------


def test_type_i_odd_multiplicity_with_wedge():
    # n=35, L=Q: even weight offers the wedge group since 70 = C(8,4)
    out = classify(prof("I", 1, 1, 1, w=2, n=35))
    assert out.applied_rule == "typeI:odd-multiplicity"
    assert labels(out) == ["SO(70)", "SU(2^3)"]
    wedge = out.candidates[1].group
    assert wedge.rep == "exterior_power" and wedge.rep_param == 4
    assert all(c.occurs == "proven" for c in out.candidates)
    # odd weight: single symplectic group
    out = classify(prof("I", 1, 1, 1, w=1, n=35))
    assert labels(out) == ["Sp(70)"]


def test_type_i_odd_multiplicity_without_wedge():
    out = classify(prof("I", 3, 3, 1, w=2, n=27))
    assert labels(out) == ["R_{F/Q}SO(_FV)"]
    assert any("wedge alternative dropped" in note for note in out.notes)


def _derived_k(d):
    """k of the wedge alternative the classifier reads at d, or None."""
    ks = [size.bit_length() - 1 for fam, size in _orthogonal_factors(d) if fam == "SL"]
    assert len(ks) <= 1, d
    return ks[0] if ks else None


def test_wedge_solutions_are_the_admissible_middle_wedges():
    # The wedge alternative 2l = C(2^k, 2^(k-1)) is exactly the A_{2^k-1}
    # middle-weight factor admissible_factors keeps in dimension 2 mod 4
    # (rank 31 = 2^5 - 1, hence k <= 5).
    dims = list(range(2, 4001, 4)) + [math.comb(2 ** k, 2 ** (k - 1)) for k in (3, 4, 5)]
    for d in dims:
        wedges = []
        for rs, w in admissible_factors(d, ORTHOGONAL, max_rank=31):
            if rs.kind == "A":
                assert w == fundamental_weight(rs, (rs.rank + 1) // 2), (d, rs.name)
                wedges.append((rs.rank + 1).bit_length() - 1)
        assert len(wedges) <= 1, d
        assert central_binomial_solve(d, 5) == (wedges[0] if wedges else None), d
    # The same from the inversion itself, at every d in both classes mod 4:
    # every orthogonal A-row is a middle wedge C(2j, j) = d, the classifier
    # keeps exactly those with j = 2^(k-1), k >= 3, and central_binomial_solve
    # agrees with it.
    a_rows = {}
    for d in range(1, 20_001):
        rows = [r for r in _rows_of_dimension(d, ORTHOGONAL, d) if r[0] == "A"]
        if rows:
            a_rows[d] = rows
        assert central_binomial_solve(d) == _derived_k(d), d
    assert a_rows == {
        6: [("A", 3, 2)],
        70: [("A", 7, 4)],
        924: [("A", 11, 6)],
        12_870: [("A", 15, 8)],
    }
    assert [d for d in a_rows if _derived_k(d)] == [70, 12_870]
    # 924 = C(12, 6) is A11 on the sixth wedge, not SU(2^k): dropped
    assert _orthogonal_factors(924) == []
    for k in range(1, 21):
        d = _central_binomial(1 << (k - 1))
        assert d % 4 == 2 and (d + 2) % 4 == 0
        assert _derived_k(d) == (k if k >= 3 else None), k
        assert central_binomial_solve(d) == _derived_k(d), k
        assert _derived_k(d + 2) is None and central_binomial_solve(d + 2) is None


def test_self_dual_inversion_is_fast_at_large_d():
    # a self-dual query looks only near the one j with C(2j, j) ~ d, and
    # reads no system's rows, so the rank of D_{d/2} does not matter
    _central_binomial.cache_clear()
    for d in (2 * 10 ** 24, 2 * 10 ** 24 + 2, 2 ** 200, math.comb(84, 42)):
        for duality in (ORTHOGONAL, "symplectic"):
            start = time.perf_counter()
            rows = list(_rows_of_dimension(d, duality, d))
            assert time.perf_counter() - start < 0.005, (d, duality)
            assert all(kind != "A" or rank < 100 for kind, rank, _ in rows)
    # D_{2^199} standard and the spin representation of B_200 (the half-spins
    # of D_201 are dual to each other)
    d = 2 ** 200
    assert list(_rows_of_dimension(d, ORTHOGONAL, d)) == [("D", d // 2, 1), ("B", 200, 200)]
    assert ("A", 83, 42) in _rows_of_dimension(math.comb(84, 42), ORTHOGONAL, 10 ** 30)


# n = 2 (mod 4) up to 4,000 (the branch itself sees those with n/2 composite)
# and the central binomials C(2^k, 2^(k-1)) below the primality bound.
TWICE_ODD = list(range(6, 4001, 4)) + [math.comb(2 ** k, 2 ** (k - 1)) for k in range(3, 7)]


def test_twice_odd_rows_are_struck_products():
    # The facts the classifier once checked at run time: every factor the
    # twice-odd branch reads (the standard SO(n), then SL(2^k) when n is a
    # central binomial) makes SL(2) x G a struck product.
    for n in TWICE_ODD:
        factors = _orthogonal_factors(n)
        assert factors[0] == ("SO", n), n
        k = central_binomial_solve(n)
        assert factors[1:] == ([("SL", 1 << k)] if k else []), n
        for factor in factors:
            assert exclude_sl2_product([("SL", 2), factor]), (n, factor)


def test_twice_odd_notes_follow_the_rows():
    for n in (18, 70, 12_870, math.comb(32, 16), math.comb(64, 32)):
        odd = classify(prof("I", 1, 1, 1, w=1, n=n))
        assert odd.applied_rule == "typeI:rational-twice-odd", n
        k = central_binomial_solve(n)
        expected = [f"product alternative SL(2) x SO({n}) excluded"]
        if k:
            expected.append(f"product alternative SL(2) x SL(2^{k}) excluded")
        assert list(odd.notes) == expected, n
        even = classify(prof("I", 1, 1, 1, w=2, n=n))
        assert even.notes[0] == f"product alternative SU(2) x SO({n}) excluded"


def test_type_i_multiplicity_two():
    out = classify(prof("I", 9, 9, 1, w=1, n=18))
    assert out.applied_rule == "typeI:multiplicity-2"
    assert labels(out) == ["R_{F/Q}Sp(_FV)"]


def test_type_i_rational_twice_odd():
    # n = 18 = 2 * 9: the wedge condition 2n = 0 mod 4 can never match a
    # central binomial, so even weight is a single orthogonal group
    odd = classify(prof("I", 1, 1, 1, w=1, n=18))
    assert odd.applied_rule == "typeI:rational-twice-odd"
    assert labels(odd) == ["Sp(36)"]
    assert any("excluded" in note for note in odd.notes)
    even = classify(prof("I", 1, 1, 1, w=2, n=18))
    assert labels(even) == ["SO(36)"]


def test_type_i_out_of_scope():
    out = classify(prof("I", 1, 1, 1, w=1, n=8))
    assert out.status == OUT_OF_SCOPE
    assert labels(out) == ["Sp(16)"]
    out = classify(prof("I", 2, 2, 1, w=1, n=12))  # l = 6 twice odd, deg > 1
    assert out.status == OUT_OF_SCOPE


def test_quaternion_m_odd_with_wedge():
    # n = 70, type II, F = Q: m = 35 odd, 2m = 70 = C(8,4)
    out = classify(prof("II", 4, 1, 2, w=2, n=70))
    assert out.applied_rule == "typeII/III:m-odd"
    assert labels(out) == ["O+(B,-)", "SU(2^3)"]
    out_odd = classify(prof("II", 4, 1, 2, w=1, n=70))
    assert labels(out_odd) == ["Sp(B,-)"]
    # type III mirrors with the parities swapped
    out3 = classify(prof("III", 4, 1, 2, w=1, n=70))
    assert labels(out3) == ["O+(B,-)", "SU(2^3)"]


def test_quaternion_multiplicity_two():
    out = classify(prof("II", 8, 2, 2, w=1, n=8, disc=False))
    assert out.applied_rule == "typeII/III:m=2"
    assert labels(out) == ["R_{F/Q}Sp(B,-)"]


def test_quaternion_four_times_odd():
    # n = 12 = 4 * 3, quaternion algebra over Q: m = 6
    out = classify(prof("II", 4, 1, 2, w=1, n=12))
    assert out.applied_rule == "typeII/III:rational-four-times-odd"
    assert labels(out) == ["Sp(B,-)"]
    even = classify(prof("III", 4, 1, 2, w=1, n=12))
    assert even.applied_rule == "typeII/III:rational-four-times-odd"
    assert even.candidates[0].group.family == "O+(B)"


def test_quaternion_out_of_scope():
    out = classify(prof("II", 4, 1, 2, w=1, n=8))  # m = 4
    assert out.status == OUT_OF_SCOPE


def test_type_iv_quadratic_general():
    # n = 9 (odd, composite, not prime): coprime multiplicities decide
    out = classify(prof("IV", 2, 1, 1, w=1, n=9, traces=((4, 5),)))
    assert out.applied_rule == "typeIV:imaginary-quadratic"
    assert labels(out) == ["U(B,-)"]
    shared = classify(prof("IV", 2, 1, 1, w=1, n=9, traces=((3, 6),)))
    assert shared.status == OUT_OF_SCOPE
    missing = classify(prof("IV", 2, 1, 1, w=1, n=9))
    assert missing.status == CONDITIONAL


def test_type_iv_full_cm_balanced():
    # n = 12 with [L:Q] = 4: every pair (3,3), 3 prime
    p = prof("IV", 4, 2, 1, w=1, n=12, traces=((3, 3), (3, 3)))
    out = classify(p)
    assert out.applied_rule == "typeIV:full-CM-balanced"
    grp = out.candidates[0].group
    assert grp.family == "SU(B)" and grp.param == 6 and grp.base_degree == 2


def test_type_iv_m2_balanced_subfield():
    # n = 8, [L:Q] = 8, m = 2, balanced quadratic subfield
    traces = ((2, 0), (1, 1), (1, 1), (0, 2))
    p = prof("IV", 8, 4, 1, w=1, n=8, traces=traces)
    out = classify(p, subfields=[SubfieldDescriptor(2, True)])
    assert out.applied_rule == "typeIV:multiplicity-2-balanced"
    grp = out.candidates[0].group
    assert grp.family == "SU(B)" and grp.param == 2 and grp.base_degree == 4
    assert group_rank(grp) == 4 == rank_threshold(8)


def test_type_iv_index2_balanced_coprime():
    # n = 8, [L:Q] = 4, balanced subfield of index 2, coprime traces
    p = prof("IV", 4, 2, 1, w=1, n=8, traces=((1, 3), (3, 1)))
    out = classify(p, subfields=[SubfieldDescriptor(2, True)])
    assert out.applied_rule == "typeIV:index-2-balanced-coprime"
    grp = out.candidates[0].group
    assert grp.family == "SU(B)" and grp.param == 4 and grp.base_degree == 2


def test_type_iv_torus_general_out_of_scope():
    traces = tuple(((1, 0) if i % 2 else (0, 1)) for i in range(8))
    p = prof("IV", 16, 8, 1, w=1, n=8, traces=traces)
    out = classify(p, subfields=[])
    assert out.status == OUT_OF_SCOPE
    assert labels(out) == ["U_L"]
    bounded = classify(p, subfields=[SubfieldDescriptor(2, True)])
    assert bounded.status == OUT_OF_SCOPE
    assert "SU_{L/E}" in labels(bounded)


def test_type_iv_q2_out_of_scope():
    p = prof("IV", 8, 1, 2, w=1, n=8, traces=((3, 1),))
    out = classify(p)
    assert out.status == OUT_OF_SCOPE
    assert labels(out) == ["U(B,-)"]


def test_n4_type_iv_q2_gets_the_upper_bound(verdicts):
    # the cut-off comes before n = 4, as before every n; no trace list of
    # this shape is realizable (catalog cases 3 and 5), so none is lost
    answered = 0
    for profile, subfields, out in verdicts:
        if profile.n != 4 or profile.endo[:4] != ("IV", 8, 1, 2):
            continue
        if profile.endo.cm_traces is not None:
            assert isinstance(out, NotRealizableError), (profile, subfields)
        elif isinstance(out, ValueError):
            assert any(s.balanced and s.deg_E == 8 for s in subfields), subfields
            assert str(out) == "balanced action needs deg_E | n; 8 does not divide n=4"
        else:
            assert out.status == OUT_OF_SCOPE and labels(out) == ["U(B,-)"]
            assert out.notes[-1] == "no determination for q=2 at this n"
            answered += 1
    assert answered == 34


def test_balanced_subfield_bounds_a_profile_outside_the_classified_cases():
    p = prof("IV", 4, 2, 1, w=1, n=16, traces=((4, 4), (4, 4)))
    out = classify(p, [SubfieldDescriptor(2, True)])
    assert out.status == OUT_OF_SCOPE and out.applied_rule == "upper-bound-only"
    lef, bound = out.candidates
    assert lef.group == lefschetz_group(p)
    assert bound.group == GroupExpr("SU(B)", param=16) and labels(out)[1] == "SU(B,-)"
    assert bound.condition == "upper bound from the balanced degree-2 subfield"
    assert bound.occurs == "possible"


def test_not_realizable_rejected():
    with pytest.raises(NotRealizableError):
        classify(prof("I", 2, 2, 1, w=2, n=2))
    with pytest.raises(NotRealizableError):
        classify(prof("III", 4, 1, 2, w=1, n=2))


def test_pending_realizability_downgrades_status():
    # type III m=2 without the discriminant flag: possibly exceptional
    out = classify(prof("III", 4, 1, 2, w=1, n=4))
    assert out.status == CONDITIONAL
    assert any("not confirmed realizable" in note for note in out.notes)


# --- structural invariants ---------------------------------------------


def test_candidates_never_exceed_lefschetz():
    cases = [
        (prof("I", 1, 1, 1, w=1, n=4), None),
        (prof("I", 1, 1, 1, w=2, n=4), None),
        (prof("I", 1, 1, 1, w=2, n=35), None),
        (prof("II", 4, 1, 2, w=2, n=70), None),
        (prof("IV", 2, 1, 1, w=2, n=4, traces=((2, 2),)), None),
        (
            prof("IV", 8, 4, 1, w=1, n=4, traces=((1, 0), (0, 1), (1, 0), (0, 1))),
            [SubfieldDescriptor(2, True)],
        ),
    ]
    for profile, subs in cases:
        lef = lefschetz_group(profile)
        out = classify(profile, subs)
        for cand in out.candidates:
            assert group_rank(cand.group) <= group_rank(lef)
            assert group_dim(cand.group) <= group_dim(lef)


def test_outcome_json_shape():
    out = classify(prof("I", 1, 1, 1, w=1, n=4))
    data = out.to_json()
    assert list(data) == ["status", "applied_rule", "candidates", "notes"]
    assert list(data["candidates"][0]) == ["group", "condition", "occurs"]


# --- su_constraint ------------------------------------------------------


def test_su_constraint_from_traces():
    p = prof("IV", 2, 1, 1, w=1, n=4, traces=((2, 2),))
    assert su_constraint(p, SubfieldDescriptor(2, True)) is True
    p = prof("IV", 2, 1, 1, w=1, n=4, traces=((1, 3),))
    assert su_constraint(p, SubfieldDescriptor(2, False)) is False
    with pytest.raises(InconsistentSubfieldError):
        su_constraint(p, SubfieldDescriptor(2, True))


def test_su_constraint_degree_checks():
    p = prof("IV", 4, 2, 1, w=1, n=4, traces=((2, 0), (1, 1)))
    with pytest.raises(InconsistentSubfieldError):
        su_constraint(p, SubfieldDescriptor(3, True))
    with pytest.raises(InconsistentSubfieldError):
        su_constraint(p, SubfieldDescriptor(8, True))
    # balanced needs deg_E | n
    p9 = prof("IV", 6, 3, 1, w=1, n=9, traces=((2, 1), (1, 2), (3, 0)))
    with pytest.raises(InconsistentSubfieldError):
        su_constraint(p9, SubfieldDescriptor(6, True))


def test_su_constraint_plain_flag():
    traces = ((2, 0), (1, 1), (1, 1), (0, 2))
    p = prof("IV", 8, 4, 1, w=1, n=8, traces=traces)
    assert su_constraint(p, SubfieldDescriptor(2, True)) is True
    assert su_constraint(p, SubfieldDescriptor(4, False)) is False


# --- product exclusion --------------------------------------------------


def test_exclude_sl2_product_cases():
    assert exclude_sl2_product([("SL", 2), ("SO", 6)]) is True
    assert exclude_sl2_product([("SL", 2), ("SO", 4)]) is False
    assert exclude_sl2_product([("SL", 2), ("Sp", 4)]) is True
    assert exclude_sl2_product([("SL", 2), ("SL", 8)]) is True
    assert exclude_sl2_product([("SU", 2), ("SO", 10)]) is True
    assert exclude_sl2_product([("SL", 2), ("SO", 3)]) is False  # so(3) = sl(2)


def test_exclude_sl2_product_pattern_errors():
    with pytest.raises(ValueError):
        exclude_sl2_product([("SO", 6), ("SL", 2)])
    with pytest.raises(ValueError):
        exclude_sl2_product([("SL", 2)])
    with pytest.raises(ValueError):
        exclude_sl2_product([("SL", 2), ("SO", 2)])


# --- the grid -----------------------------------------------------------


def test_table3_has_13_rows():
    rows = table3()
    assert len(rows) == 13
    non_lef = [r for r in rows if not r["equals_lefschetz"]]
    assert len(non_lef) == 3
    labels_found = {
        (r["odd"] or {}).get("label") for r in rows
    } | {(r["even"] or {}).get("label") for r in rows}
    assert {"SL(2)xSO(4)", "SO(7)", "SU(B,-)", "SU_{L/E}"} <= labels_found


def test_table3_rows_without_a_pick_have_one_candidate():
    from hodgekit.classifier import _TABLE3_ROWS

    for t, dL, dF, q, weights, extra, subs, pick, _ in _TABLE3_ROWS:
        endo = EndomorphismDescriptor(t, dL, dF, q, **extra)
        for w in weights:
            out = classify(HodgeProfile(weight=w, n=4, endo=endo), subs)
            assert pick is not None or len(out.candidates) == 1, (t, dL, w)


def test_classify_deterministic():
    p = prof("IV", 8, 4, 1, w=1, n=4, traces=((1, 0), (0, 1), (1, 0), (0, 1)))
    subs = [SubfieldDescriptor(2, True)]
    assert classify(p, subs) == classify(p, subs)


def test_rank_threshold():
    # ceil(log2(2n)), the least r with 2^r >= 2n
    assert rank_threshold(1) == 1
    assert rank_threshold(4) == 3
    assert rank_threshold(6) == 4
    assert rank_threshold(8) == 4
    for n in range(1, 300):
        r = rank_threshold(n)
        assert 2 ** r >= 2 * n > 2 ** (r - 1)


def test_every_candidate_lies_between_the_rank_floor_and_the_lefschetz_group(verdicts):
    """Every candidate's rank lies between a floor and the Lefschetz
    group's, and a DETERMINED verdict offers only proven groups.  For
    commutative L (type I, and type IV with q = 1) the floor is
    ceil(log2 2n).  It is proven here for the rules whose group always
    meets it; ``_guard`` checks it at run time only where data can break it
    (``_subfield_bounds`` and ``_classify_2p``'s balanced quadratic
    subfield).  For the other types the floor is 1: type II at n = 2,
    [L:Q] = 4 answers Sp(L,-), of rank 1.  A candidate's dimension is at
    most the Lefschetz group's too, bar type IV with q = 1, whose
    subfield bounds R_{J/Q}SU(C,-) can exceed it."""
    answered, reached = collections.Counter(), collections.Counter()
    broken = []
    for profile, group in itertools.groupby(verdicts, key=lambda v: v.profile):
        endo = profile.endo
        unitary = endo.albert_type == "IV" and endo.q == 1
        commutative = unitary or endo.albert_type == "I"
        floor = rank_threshold(profile.n) if commutative else 1
        lef = lefschetz_group(profile)
        lef_rank, lef_dim = group_rank(lef), group_dim(lef)
        for _, subfields, out in group:
            if isinstance(out, ValueError):
                continue
            answered[commutative] += 1
            reached[commutative, out.applied_rule] += 1
            families = {c.group.family for c in out.candidates}
            if subfields and "SU_{L/E}" in families and out.applied_rule != "n=2p":
                reached[commutative, "torus cut by a balanced quadratic subfield"] += 1
            for cand in out.candidates:
                rank, dim = group_rank(cand.group), group_dim(cand.group)
                proven = out.status != DETERMINED or cand.occurs == "proven"
                small = unitary or dim <= lef_dim
                if not (floor <= rank <= lef_rank and small and proven):
                    broken.append((profile, subfields, out.status, cand))
    assert not broken, broken[:5]
    # every rule is reached, the four of types I and IV that need no guard
    # among them
    assert {rule for commutative, rule in reached if commutative} == {
        "n=1", "n=prime", "n=4", "n=2p", "upper-bound-only",
        "torus cut by a balanced quadratic subfield",
        "typeI:odd-multiplicity", "typeI:multiplicity-2", "typeI:rational-twice-odd",
        "typeIV:imaginary-quadratic", "typeIV:full-CM-balanced", "typeIV:torus",
        "typeIV:index-2-balanced-coprime", "typeIV:multiplicity-2-balanced",
    }
    assert {rule for commutative, rule in reached if not commutative} == {
        "n=prime", "n=4", "n=2p", "upper-bound-only",
        "typeII/III:m-odd", "typeII/III:m=2", "typeII/III:rational-four-times-odd",
    }
    assert answered == {True: 72_544, False: 41_762}


def test_classify_large_prime_is_fast():
    start = time.perf_counter()
    out = classify(prof("I", 1, 1, 1, w=1, n=(1 << 61) - 1))
    assert time.perf_counter() - start < 1.0
    assert out.applied_rule == "n=prime"


def test_classify_validates_the_profile_once(monkeypatch):
    import hodgekit.core

    original = hodgekit.core.validate_profile
    calls = []

    def counting(profile):
        calls.append(profile)
        return original(profile)

    for name, module in list(sys.modules.items()):
        if name.startswith("hodgekit"):
            if vars(module).get("validate_profile") is original:
                monkeypatch.setattr(module, "validate_profile", counting)
    branches = [
        (prof("I", 1, 1, 1, w=1, n=1), "n=1"),
        (prof("I", 1, 1, 1, w=1, n=5), "n=prime"),
        (prof("I", 1, 1, 1, w=1, n=4), "n=4"),
        (prof("I", 1, 1, 1, w=1, n=6), "n=2p"),
        (prof("I", 1, 1, 1, w=2, n=9), "typeI:odd-multiplicity"),
        (prof("II", 4, 1, 2, w=1, n=8), "upper-bound-only"),
        (prof("III", 4, 1, 2, w=1, n=18), "typeII/III:m-odd"),
        (
            prof("IV", 2, 1, 1, w=1, n=8, traces=((3, 5),)),
            "typeIV:imaginary-quadratic",
        ),
    ]
    for profile, rule in branches:
        calls.clear()
        assert classify(profile).applied_rule == rule
        assert len(calls) == 1, rule


# --- a conditional verdict covers every completion of its missing data ---


def _datum(profile):
    """What a completion fills in the profile: type IV's trace list, or
    disc_one of types I-III."""
    endo = profile.endo
    return endo.cm_traces if endo.albert_type == "IV" else endo.disc_one


def test_a_conditional_verdict_covers_each_completion_of_its_data(verdicts):
    """Every group of a DETERMINED completion is among the candidates of
    the CONDITIONAL verdict on the data with gaps.  A completion fills each
    gap (the profile's ``_datum``, and type IV's inventory) with every
    value the universe has for it, and keeps the rest."""
    answers = collections.defaultdict(dict)  # profile -> {inventory: outcome}
    for profile, subfields, out in verdicts:
        answers[profile][subfields] = out
    filled = collections.defaultdict(list)  # shape -> answers of its filled profiles
    for profile, by_inventory in answers.items():
        if _datum(profile) is not None:
            filled[profile.weight, profile.n, profile.endo[:4]].append(by_inventory)
    conditionals = completions = 0
    missed = []
    for profile, by_inventory in answers.items():
        shape = profile.weight, profile.n, profile.endo[:4]
        for subfields, conditional in by_inventory.items():
            inventory_gap = subfields is None and profile.endo.albert_type == "IV"
            if _datum(profile) is not None and not inventory_gap:
                continue
            if isinstance(conditional, ValueError) or conditional.status != CONDITIONAL:
                continue
            offered = {c.group for c in conditional.candidates}
            conditionals += 1
            for full in filled[shape] if _datum(profile) is None else [by_inventory]:
                for subs, out in full.items():
                    if subs is None if inventory_gap else subs != subfields:
                        continue  # not a completion of this inventory
                    completions += 1
                    if not isinstance(out, ValueError) and out.status == DETERMINED:
                        missed += [
                            (profile, subfields, c.group.label())
                            for c in out.candidates
                            if c.group not in offered
                        ]
    assert not missed, missed[:5]
    assert (conditionals, completions) == (4_650, 133_764)


def test_a_trace_absent_verdict_offers_only_what_some_trace_list_yields(verdicts):
    """At [L:Q] = 2 every candidate of a CONDITIONAL verdict without trace
    data or inventory is a candidate of some realizable completion
    (a, n - a), whatever that completion's status: a group no trace list
    yields is dead."""
    yielded = collections.defaultdict(set)
    conditionals = []
    for profile, subfields, out in verdicts:
        if profile.endo[:4] != ("IV", 2, 1, 1) or subfields is not None:
            continue
        if isinstance(out, ValueError):  # a trace list that is not realizable
            continue
        key = profile.weight, profile.n
        if profile.endo.cm_traces is not None:
            yielded[key] |= {c.group for c in out.candidates}
        elif out.status == CONDITIONAL and out.applied_rule in (
            "n=4",
            "typeIV:imaginary-quadratic",
        ):
            conditionals.append((key, out))
    dead = [
        (key, c.group.label())
        for key, out in conditionals
        for c in out.candidates
        if c.group not in yielded[key]
    ]
    assert not dead, dead[:5]
    # both weights of the 35 composite n <= 64 other than 2p
    assert len(conditionals) == 70


@pytest.mark.parametrize(
    "factor, message",
    [
        (("SL", 1), "SL(1) is not semisimple"),
        (("SU", 1), "SU(1) is not semisimple"),
        (("Sp", 3), "Sp(3) is not a symplectic group"),
        (("Sp", 0), "Sp(0) is not a symplectic group"),
        (("G", 2), "unknown factor family 'G'"),
    ],
)
def test_exclude_sl2_product_refuses_a_factor_by_name(factor, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        exclude_sl2_product([("SL", 2), factor])
