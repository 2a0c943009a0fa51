"""The Lefschetz group of a profile, plus rank/dimension arithmetic.

The Lefschetz group is the connected centralizer of the endomorphism
algebra inside the full isometry group of the polarization (symplectic
at odd weight, orthogonal at even weight).  It depends only on the
Albert type, the weight parity, and the degree data:

    type I   odd -> Res_F Sp on V over F      even -> Res_F SO on V over F
    type II  odd -> Res_F Sp(B,-)             even -> Res_F O+(B,-)
    type III odd -> Res_F O+(B,-)             even -> Res_F Sp(B,-)
    type IV  both parities -> Res_F U(B,-)

Matrix sizes: 2n/[F:Q] for type I, 2m for the quaternionic forms, mq for
the unitary family.  When mq = 1 the unitary group degenerates to the
norm-one torus of the CM field, which is how it is reported.
"""

from __future__ import annotations

from .core import (
    FAM_O_PLUS_B,
    FAM_SL2_SO4,
    FAM_SO,
    FAM_SO7,
    FAM_SP,
    FAM_SP_B,
    FAM_SU_B,
    FAM_SU_LE,
    FAM_SU_POW2,
    FAM_U_B,
    FAM_U_L,
    GroupExpr,
    HodgeProfile,
    ODD,
    REP_NONE,
    require_valid,
)
from .numth import _COUNT


def lefschetz_group(profile: HodgeProfile) -> GroupExpr:
    """The Lefschetz group; raises InvalidProfileError on an invalid profile."""
    require_valid(profile)
    return _lefschetz_group(profile)


def _lefschetz_group(profile: HodgeProfile) -> GroupExpr:
    """The Lefschetz group of a profile the caller has already validated."""
    t = profile.endo.albert_type
    odd = profile.parity == ODD
    g = profile.endo.deg_F
    m = profile.m
    if t == "I":
        # V over F has dimension m = 2n/[F:Q], always even for type I.
        k = m // 2
        return GroupExpr(FAM_SP if odd else FAM_SO, param=k, base_degree=g)
    if t in ("II", "III"):
        sp_side = odd if t == "II" else not odd
        fam = FAM_SP_B if sp_side else FAM_O_PLUS_B
        return GroupExpr(fam, param=m, base_degree=g)
    size = m * profile.endo.q
    if size == 1:
        # B is the CM field L itself; U(B,-) is the norm-one torus U_L.
        return GroupExpr(FAM_U_L, param=g, rep=REP_NONE)
    return GroupExpr(FAM_U_B, param=size, base_degree=g)


# (absolute rank, |Phi^+|) of each family over an algebraic closure, at
# base degree 1; the root counts come from the one table, ``numth._COUNT``.
_ROOT_DATA = {
    FAM_SP: lambda k: (k, _COUNT["C"](k)),
    FAM_SP_B: lambda k: (k, _COUNT["C"](k)),
    FAM_SO: lambda k: (k, _COUNT["D"](k)),
    FAM_O_PLUS_B: lambda k: (k, _COUNT["D"](k)),
    FAM_U_B: lambda k: (k, _COUNT["A"](k - 1)),  # GL(k): A_{k-1} and the centre
    FAM_SU_B: lambda k: (k - 1, _COUNT["A"](k - 1)),
    FAM_SU_POW2: lambda k: ((1 << k) - 1, _COUNT["A"]((1 << k) - 1)),
    FAM_U_L: lambda k: (k, 0),
    FAM_SU_LE: lambda k: (k - 1, 0),
    FAM_SL2_SO4: lambda k: (3, 3),  # A1 x A1 x A1
    FAM_SO7: lambda k: (3, _COUNT["B"](3)),
}


def group_dim(expr: GroupExpr) -> int:
    """Dimension as a Q-algebraic group: rank + 2 |Phi^+|, times the degree."""
    rank, positive_roots = _ROOT_DATA[expr.family](expr.param)
    return expr.base_degree * (rank + 2 * positive_roots)


def group_rank(expr: GroupExpr) -> int:
    """Absolute rank (rank over an algebraic closure)."""
    return expr.base_degree * _ROOT_DATA[expr.family](expr.param)[0]
