import pytest

from hodgekit.core import GroupExpr
from hodgekit.lefschetz import group_dim, group_rank, lefschetz_group

from oracles import symplectic_algebra_dim, orthogonal_algebra_dim, unitary_algebra_dim
from universe import prof


# --- the eight (type, parity) cells -----------------------------------


def test_type_i_cells():
    odd = lefschetz_group(prof("I", 1, 1, 1, w=1, n=3))
    assert (odd.family, odd.param, odd.base_degree) == ("Sp", 3, 1)
    assert odd.label() == "Sp(6)"
    even = lefschetz_group(prof("I", 2, 2, 1, w=2, n=6))
    assert (even.family, even.param, even.base_degree) == ("SO", 3, 2)


def test_type_ii_iii_cells():
    ii_odd = lefschetz_group(prof("II", 4, 1, 2, w=1, n=4))
    ii_even = lefschetz_group(prof("II", 4, 1, 2, w=2, n=4))
    iii_odd = lefschetz_group(prof("III", 4, 1, 2, w=1, n=4))
    iii_even = lefschetz_group(prof("III", 4, 1, 2, w=2, n=4))
    assert (ii_odd.family, ii_odd.param) == ("Sp(B)", 2)
    assert (ii_even.family, ii_even.param) == ("O+(B)", 2)
    assert (iii_odd.family, iii_odd.param) == ("O+(B)", 2)
    assert (iii_even.family, iii_even.param) == ("Sp(B)", 2)


def test_column_swap_symmetry():
    # type II odd agrees with type III even cell by cell, and vice versa
    for n, dF in [(4, 1), (8, 2)]:
        dL = 4 * dF
        a = lefschetz_group(prof("II", dL, dF, 2, w=1, n=n))
        b = lefschetz_group(prof("III", dL, dF, 2, w=2, n=n))
        assert a == b
        c = lefschetz_group(prof("II", dL, dF, 2, w=2, n=n))
        d = lefschetz_group(prof("III", dL, dF, 2, w=1, n=n))
        assert c == d


def test_type_iv_parity_independent():
    for w in (1, 2, 3, 4):
        g = lefschetz_group(prof("IV", 4, 2, 1, w=w, n=4, traces=((2, 0), (1, 1))))
        assert (g.family, g.param, g.base_degree) == ("U(B)", 2, 2)


def test_type_iv_torus_degeneration():
    # one-dimensional centralizer: the group is the norm-one torus
    p = prof("IV", 6, 3, 1, w=1, n=3, traces=((1, 0), (0, 1), (1, 0)))
    g = lefschetz_group(p)
    assert g.family == "U_L" and g.param == 3
    assert group_dim(g) == 3 and group_rank(g) == 3


# --- dimension/rank arithmetic against from-scratch oracles -----------


def test_symplectic_dim_oracle():
    expected = symplectic_algebra_dim(3)
    assert expected == 21
    assert group_dim(GroupExpr("Sp", param=3)) == expected
    assert group_dim(GroupExpr("Sp(B)", param=2)) == symplectic_algebra_dim(2)


def test_orthogonal_dim_oracle():
    assert group_dim(GroupExpr("SO", param=4)) == orthogonal_algebra_dim(8)
    assert group_dim(GroupExpr("O+(B)", param=2)) == orthogonal_algebra_dim(4)


def test_unitary_dim_oracle():
    expected = unitary_algebra_dim(4)
    assert expected == 16
    assert group_dim(GroupExpr("U(B)", param=4)) == expected
    assert group_dim(GroupExpr("SU(B)", param=4)) == expected - 1


def test_restriction_of_scalars_multiplies():
    base = GroupExpr("Sp", param=2)
    lifted = GroupExpr("Sp", param=2, base_degree=3)
    assert group_dim(lifted) == 3 * group_dim(base)
    assert group_rank(lifted) == 3 * group_rank(base)


def test_named_group_dims():
    assert group_dim(GroupExpr("SL(2)xSO(4)", rep="product_of_standards")) == 9
    assert group_dim(GroupExpr("SO(7)", rep="spin")) == 21
    assert group_dim(GroupExpr("U_L", param=5)) == 5
    assert group_dim(GroupExpr("SU_{L/E}", param=5)) == 4
    assert group_dim(GroupExpr("SU(2^k)", param=3, rep="exterior_power", rep_param=4)) == 63


def test_ranks():
    assert group_rank(GroupExpr("SO", param=4)) == 4
    assert group_rank(GroupExpr("SO(7)")) == 3
    assert group_rank(GroupExpr("SL(2)xSO(4)")) == 3
    assert group_rank(GroupExpr("SU(2^k)", param=3, rep="exterior_power", rep_param=4)) == 7
    assert group_rank(GroupExpr("SU(B)", param=6, base_degree=2)) == 10


def test_dim_at_least_rank_everywhere():
    profiles = [
        prof("I", 1, 1, 1, w=1, n=5),
        prof("I", 2, 2, 1, w=2, n=6),
        prof("II", 4, 1, 2, w=1, n=6),
        prof("III", 8, 2, 2, w=2, n=8),
        prof("IV", 2, 1, 1, w=1, n=5, traces=((2, 3),)),
        prof("IV", 8, 4, 1, w=2, n=4, traces=((1, 0), (0, 1), (1, 0), (0, 1))),
    ]
    for p in profiles:
        g = lefschetz_group(p)
        assert group_rank(g) >= 1
        assert group_dim(g) >= group_rank(g)


def test_invalid_profile_rejected():
    from hodgekit.core import InvalidProfileError

    with pytest.raises(InvalidProfileError):
        lefschetz_group(prof("I", 4, 4, 1, w=1, n=3))
