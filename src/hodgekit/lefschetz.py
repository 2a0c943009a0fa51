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


def group_dim(expr: GroupExpr) -> int:
    """Dimension as a Q-algebraic group (classical Lie dimensions)."""
    fam, k = expr.family, expr.param
    if fam == FAM_SP or fam == FAM_SP_B:
        base = k * (2 * k + 1)
    elif fam == FAM_SO or fam == FAM_O_PLUS_B:
        base = k * (2 * k - 1)
    elif fam == FAM_U_B:
        base = k * k
    elif fam == FAM_SU_B:
        base = k * k - 1
    elif fam == FAM_SU_POW2:
        size = 1 << k
        base = size * size - 1
    elif fam == FAM_U_L:
        base = k
    elif fam == FAM_SU_LE:
        base = k - 1
    elif fam == FAM_SL2_SO4:
        base = 3 + 6
    elif fam == FAM_SO7:
        base = 21
    else:  # pragma: no cover - families are closed
        raise ValueError(f"unknown family {fam!r}")
    return expr.base_degree * base


def group_rank(expr: GroupExpr) -> int:
    """Absolute rank (rank over an algebraic closure)."""
    fam, k = expr.family, expr.param
    if fam in (FAM_SP, FAM_SP_B, FAM_SO, FAM_O_PLUS_B, FAM_U_B):
        base = k
    elif fam == FAM_SU_B:
        base = k - 1
    elif fam == FAM_SU_POW2:
        base = (1 << k) - 1
    elif fam == FAM_U_L:
        base = k
    elif fam == FAM_SU_LE:
        base = k - 1
    elif fam == FAM_SL2_SO4:
        base = 1 + 2
    elif fam == FAM_SO7:
        base = 3
    else:  # pragma: no cover
        raise ValueError(f"unknown family {fam!r}")
    return expr.base_degree * base
