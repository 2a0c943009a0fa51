"""Map a realizable profile to its set of possible Hodge groups.

The dispatch tries the sharp results for special half-dimensions first
(n = 1, n prime, n = 2p with p an odd prime, the type IV torus, n = 4)
and falls back to the general statements: types I-III share one rule on
the multiplicity of V over the algebra, ``_classify_multiplicity``.  Type
IV with q != 1 is cut off in the dispatch itself, ahead of n = 2p: no
result here covers it, so it gets the Lefschetz upper bound at every n,
and every branch past the cut-off that sees type IV sees a CM field.
Anything the theorems do not cover is reported as out_of_scope with the
Lefschetz group as an upper bound.  Missing optional data degrades the
status to conditional instead of guessing: ``_classify_type_iv`` builds
the trace-absent verdict at [L:Q] = 2, n = 4 included; ``_no_inventory``
the inventory-absent ones of the n = 2p and torus rules, bar the n = 2p
rank-floor variant; ``_classify_2p`` the Galois-flag gap; and
``classify`` the verdict on a profile not confirmed realizable.

The Hodge group in the torus case (type IV, m = 1, where the Lefschetz
group is the norm-one torus U_L) is settled at three half-dimensions.  At
n = p it is the Lefschetz group (Ribet; Tankeev).  At n = 4 a balanced
imaginary quadratic subfield E cuts it to SU_{L/E} (Moonen and Zarhin),
and at n = 2p the same cut holds when L/Q is moreover Galois (the source
paper).  Elsewhere the cut is only a containment, reported as an upper
bound.  The torus case has one dispatch entry, after the n = 2p rule.

``classify`` validates the profile once (inside ``realizable``), computes
the Lefschetz group once, and hands it to every branch.  The branches
build their outcomes from a few shared pieces: ``_single`` (one proven
candidate), ``_upper`` (a possible upper bound), ``_subfield_bounds``
(the bounds from the balanced subfields) and ``_with_wedge`` (the
Lefschetz group plus the special-unitary wedge alternative, when it
exists).  A verdict that reads the subfield inventory reads it in one
pass, ``_balanced_any``, which cross-checks every subfield against the
trace data; the n = 2p and torus rules take its first degree-2 entry.
The wedge and SL(2)-product alternatives are read off ``numth``'s table
through ``central_binomial_solve`` alone, under its one cap ``_WEDGE_K_MAX``.
``_guard`` refuses data that puts a group below the commutative rank floor
at the two places data can: ``_subfield_bounds`` (a balanced degree-4
subfield on the torus at n = 4) and ``_classify_2p`` (n = 6, [L:Q] = 6).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .core import (
    FAM_SL2_SO4,
    FAM_SO7,
    FAM_SP,
    FAM_SP_B,
    FAM_SU_B,
    FAM_SU_LE,
    FAM_SU_POW2,
    EndomorphismDescriptor,
    GroupExpr,
    HodgeProfile,
    ODD,
    REP_EXTERIOR,
    REP_PRODUCT,
    REP_SPIN,
    _require_int,
    _require_object,
)
from .lefschetz import _lefschetz_group, group_rank
from .numth import _WEDGE_K_MAX, central_binomial_solve, is_prime as _is_prime
from .realizability import realizable

DETERMINED = "determined"
CONDITIONAL = "conditional"
OUT_OF_SCOPE = "out_of_scope"

OCCURS_PROVEN = "proven"
OCCURS_POSSIBLE = "possible"

RULE_N1 = "n=1"
RULE_PRIME = "n=prime"
RULE_N4 = "n=4"
RULE_2P = "n=2p"
RULE_I_ODD_L = "typeI:odd-multiplicity"
RULE_I_L2 = "typeI:multiplicity-2"
RULE_I_TWICE_ODD = "typeI:rational-twice-odd"
RULE_QUAT_M_ODD = "typeII/III:m-odd"
RULE_QUAT_M2 = "typeII/III:m=2"
RULE_QUAT_4ODD = "typeII/III:rational-four-times-odd"
RULE_IV_QUAD = "typeIV:imaginary-quadratic"
RULE_IV_FULL_CM = "typeIV:full-CM-balanced"
RULE_IV_INDEX2 = "typeIV:index-2-balanced-coprime"
RULE_IV_M2 = "typeIV:multiplicity-2-balanced"
RULE_IV_TORUS = "typeIV:torus"
RULE_UPPER = "upper-bound-only"


class NotRealizableError(ValueError):
    """classify was handed a profile that cannot occur."""


class InconsistentSubfieldError(ValueError):
    """Subfield assertions contradict the profile (no structure exists)."""


class _SubfieldFields(NamedTuple):
    deg_E: int
    balanced: bool
    galois_L: Optional[bool]


class SubfieldDescriptor(_SubfieldFields):
    """A CM subfield E of the endomorphism algebra, with the flag saying
    whether the structure is balanced over E (equal extreme multiplicities
    at every embedding of E), and optionally whether L/Q is Galois.  The
    flags must be bools and deg_E an int; nothing is coerced."""

    __slots__ = ()

    def __new__(cls, deg_E, balanced, galois_L=None):
        if not isinstance(balanced, bool):
            raise ValueError(f"balanced must be a boolean, got {balanced!r}")
        if galois_L is not None and not isinstance(galois_L, bool):
            raise ValueError(f"galois_L must be a boolean, got {galois_L!r}")
        _require_int(deg_E, "deg_E")
        return tuple.__new__(cls, (deg_E, balanced, galois_L))

    def to_json(self) -> dict:
        out: dict = {"deg_E": self.deg_E, "balanced": self.balanced}
        if self.galois_L is not None:
            out["galois_L"] = self.galois_L
        return out

    @classmethod
    def from_json(cls, data: dict) -> "SubfieldDescriptor":
        _require_object(data, "subfield", ("deg_E", "balanced"), ("galois_L",))
        sub = cls(data["deg_E"], data["balanced"], data.get("galois_L"))
        if "galois_L" in data and sub.galois_L is None:  # null is not a flag
            raise ValueError("galois_L must be a boolean, got None")
        return sub


class Candidate(NamedTuple):
    group: GroupExpr
    condition: str = ""
    occurs: str = OCCURS_PROVEN

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "condition": self.condition,
            "occurs": self.occurs,
        }


class ClassificationOutcome(NamedTuple):
    status: str
    candidates: tuple[Candidate, ...]
    applied_rule: str
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "applied_rule": self.applied_rule,
            "candidates": [c.to_json() for c in self.candidates],
            "notes": list(self.notes),
        }


def rank_threshold(n: int) -> int:
    """ceil(log2(2n)): the integer rank floor for commutative algebras."""
    return (2 * n - 1).bit_length()


def _guard(profile: HodgeProfile, expr: GroupExpr, claim: str) -> GroupExpr:
    """Refuse a group below the rank floor for commutative L: the data
    asserts a structure whose Hodge group is too small to exist.  Both
    callers hold type IV with q = 1.  ``_subfield_bounds``' bound from a
    balanced degree-e subfield has rank n - e/2, below the floor only at
    e = n in {2, 4, 6}; of these only the torus at n = 4 reads bounds (rank
    2 < 3).  ``_classify_2p``'s SU(B,-) has rank [F:Q](m - 1), below the
    floor only at n = 6, [L:Q] = 6.  Every other rule's group meets it.
    """
    if group_rank(expr) < rank_threshold(profile.n):
        raise InconsistentSubfieldError(
            f"{claim}: {expr.label()} has rank {group_rank(expr)} < "
            f"{rank_threshold(profile.n)} = ceil(log2(2n)); no simple "
            "structure with the asserted data exists"
        )
    return expr


# ---------------------------------------------------------------------------
# Product-pattern exclusion
# ---------------------------------------------------------------------------


def _a1_components(factor: tuple[str, int]) -> int:
    """The number of simple components of type A1 of one classical factor:
    one for sl(2) = su(2) = sp(2) = so(3), two for so(4) = sl(2) x sl(2)."""
    fam, size = factor
    if fam in ("SL", "SU"):
        if size < 2:
            raise ValueError(f"{fam}({size}) is not semisimple")
        return int(size == 2)
    if fam == "Sp":
        if size < 2 or size % 2:
            raise ValueError(f"Sp({size}) is not a symplectic group")
        return int(size == 2)
    if fam == "SO":
        if size < 3:
            raise ValueError(f"SO({size}) is not semisimple")
        return {3: 1, 4: 2}.get(size, 0)
    raise ValueError(f"unknown factor family {fam!r}")


def exclude_sl2_product(factors: Sequence[tuple[str, int]]) -> bool:
    """Whether a product SL(2) x G (product of standards) is struck.

    The pattern must be a leading rank-1 factor followed by a nontrivial
    semisimple G; the group is excluded whenever G has no rank-1 simple
    components (so SL(2) x SO(4) survives, SL(2) x SO(2k) for k >= 3 and
    SL(2) x Sp(4) and SL(2) x SL(2^k) do not).
    """
    factors = [(f, _require_int(s, "factor size")) for f, s in factors]
    if len(factors) < 2:
        raise ValueError("pattern needs SL(2) times a nontrivial group")
    if _a1_components(factors[0]) != 1:
        raise ValueError("pattern must start with an SL(2)-type factor")
    # a sum, not any(): every factor of G is checked
    return sum(_a1_components(f) for f in factors[1:]) == 0


# ---------------------------------------------------------------------------
# Subfield bookkeeping
# ---------------------------------------------------------------------------


def _check_subfield(profile: HodgeProfile, sub: SubfieldDescriptor) -> None:
    if sub.deg_E < 2 or sub.deg_E % 2 != 0:
        raise InconsistentSubfieldError(
            f"a CM subfield has even degree >= 2, got {sub.deg_E}"
        )
    if profile.endo.deg_L % sub.deg_E != 0:
        raise InconsistentSubfieldError(
            f"deg_E={sub.deg_E} does not divide [L:Q]={profile.endo.deg_L}"
        )
    if sub.balanced and profile.n % sub.deg_E != 0:
        raise InconsistentSubfieldError(
            f"balanced action needs deg_E | n; {sub.deg_E} does not divide "
            f"n={profile.n}"
        )


def su_constraint(profile: HodgeProfile, sub: SubfieldDescriptor) -> bool:
    """Whether the special-unitary containment from the subfield holds.

    True exactly when the structure is balanced over E.  When E is the
    whole algebra and trace data is present, balance is read off the
    traces and cross-checked against the descriptor.
    """
    _check_subfield(profile, sub)
    if sub.deg_E == profile.endo.deg_L and profile.endo.cm_traces is not None:
        from_traces = all(a == b for a, b in profile.endo.cm_traces)
        if from_traces != sub.balanced:
            raise InconsistentSubfieldError(
                "balanced flag contradicts the trace data"
            )
        return from_traces
    return sub.balanced


def _balanced_any(
    profile: HodgeProfile, subfields: Optional[Sequence[SubfieldDescriptor]]
) -> list[SubfieldDescriptor]:
    return [s for s in subfields or () if su_constraint(profile, s)]


# ---------------------------------------------------------------------------
# Outcome builders
# ---------------------------------------------------------------------------

def _single(group: GroupExpr, rule: str, notes=()) -> ClassificationOutcome:
    return ClassificationOutcome(
        DETERMINED, (Candidate(group),), rule, tuple(notes)
    )


def _upper(group: GroupExpr, condition: str = "upper bound") -> Candidate:
    return Candidate(group, condition=condition, occurs=OCCURS_POSSIBLE)


def _subfield_bounds(
    profile: HodgeProfile, balanced: Sequence[SubfieldDescriptor]
) -> list[Candidate]:
    """The upper bound R_{J/Q}SU(C,-), for the centralizer C of E, from each
    balanced subfield E."""
    cands = []
    for sub in balanced:
        su = GroupExpr(
            FAM_SU_B, param=(2 * profile.n) // sub.deg_E, base_degree=sub.deg_E // 2
        )
        cond = f"upper bound from the balanced degree-{sub.deg_E} subfield"
        cands.append(_upper(_guard(profile, su, "balanced subfield"), cond))
    return cands


def _with_wedge(
    profile: HodgeProfile, lef: GroupExpr, rule: str, double_dim: int, notes=()
) -> ClassificationOutcome:
    """The Lefschetz group plus the restricted special-unitary wedge group
    when the table keeps SL(2^k) in dimension 2r = C(2^k, 2^(k-1)); without
    it the alternative is dropped and a note says so.  That middle wedge is
    orthogonal, so a symplectic Lefschetz group has no alternative."""
    if lef.family in (FAM_SP, FAM_SP_B):
        return _single(lef, rule, notes)
    cands = [Candidate(lef)]
    notes = tuple(notes)
    k = central_binomial_solve(double_dim)
    if k is None:
        notes += (
            f"wedge alternative dropped: {double_dim} = C(2^k, 2^(k-1)) "
            f"has no solution with 3 <= k <= {_WEDGE_K_MAX}",
        )
    else:
        group = GroupExpr(
            FAM_SU_POW2,
            param=k,
            base_degree=profile.endo.deg_F,
            rep=REP_EXTERIOR,
            rep_param=1 << (k - 1),
        )
        cond = f"{double_dim} = C(2^{k}, 2^{k - 1})"
        cands.append(Candidate(group, condition=cond))
    return ClassificationOutcome(DETERMINED, tuple(cands), rule, notes)


# ---------------------------------------------------------------------------
# Special half-dimensions
# ---------------------------------------------------------------------------


def _classify_n4(profile: HodgeProfile, lef: GroupExpr, subfields):
    """Type I with L = Q adds a second candidate at each parity.  Type IV at
    [L:Q] = 2 is the m = 4 case of ``_classify_type_iv``, trace-absent verdict
    included, under the n = 4 rule id.  The rest is the Lefschetz group."""
    endo = profile.endo
    t = endo.albert_type
    if t == "I" and endo.deg_L == 1:
        if profile.parity == ODD:
            extra, notes = GroupExpr(FAM_SL2_SO4, rep=REP_PRODUCT), ()
        else:
            extra = GroupExpr(FAM_SO7, rep=REP_SPIN)
            notes = ("product alternative SL(2) x Sp(4) excluded",)
        return ClassificationOutcome(
            DETERMINED, (Candidate(lef), Candidate(extra)), RULE_N4, notes
        )
    if t == "IV" and endo.deg_L == 2:  # deg_L = 8 is the torus: its own entry
        out = _classify_type_iv(profile, lef, subfields)
        return ClassificationOutcome(out.status, out.candidates, RULE_N4, out.notes)
    return _single(lef, RULE_N4)


_NO_QUADRATIC = "no balanced imaginary quadratic subfield known"
_NO_INVENTORY = "subfield inventory not supplied"


def _no_inventory(
    lef, alt, rule, occurs=(OCCURS_POSSIBLE, OCCURS_PROVEN), galois=False
) -> ClassificationOutcome:
    """The n = 2p and torus verdict without an inventory: ``lef`` without a
    balanced imaginary quadratic subfield, ``alt`` with one (and, when
    ``galois``, with L/Q Galois)."""
    cond = "balanced imaginary quadratic subfield exists"
    if galois:
        cond += " and L/Q is Galois"
    cands = (Candidate(lef, _NO_QUADRATIC, occurs[0]), Candidate(alt, cond, occurs[1]))
    return ClassificationOutcome(CONDITIONAL, cands, rule, (_NO_INVENTORY,))


def _classify_2p(profile: HodgeProfile, lef: GroupExpr, subfields):
    endo = profile.endo
    p = profile.n // 2
    if endo.albert_type in ("I", "II", "III"):
        note = (
            "restricted special-unitary alternatives are impossible at "
            "n=2p (the halved central binomial is odd and composite)"
        )
        return _single(lef, RULE_2P, notes=(note,))
    # Type IV; realizability forces q=1, so L is a CM field.
    su = GroupExpr(FAM_SU_B, param=profile.m, base_degree=endo.deg_F)
    torus = GroupExpr(FAM_SU_LE, param=2 * p)
    if subfields is None:
        if endo.deg_L == 4 * p:
            return _no_inventory(lef, torus, RULE_2P, galois=True)
        if group_rank(su) >= rank_threshold(profile.n):
            return _no_inventory(lef, su, RULE_2P)
        note = (
            "the balanced alternative is impossible here: its rank would "
            "violate the commutative rank bound"
        )
        cands = (_upper(lef, _NO_QUADRATIC),)
        return ClassificationOutcome(CONDITIONAL, cands, RULE_2P, (note,))
    quad = next((s for s in _balanced_any(profile, subfields) if s.deg_E == 2), None)
    if quad is None:
        return ClassificationOutcome(
            OUT_OF_SCOPE,
            (_upper(lef),),
            RULE_2P,
            (
                "no balanced imaginary quadratic subfield: the n=2p result "
                "gives no determination",
            ),
        )
    if endo.deg_L != 4 * p:
        claim = "balanced quadratic subfield at n=2p"
        return _single(_guard(profile, su, claim), RULE_2P)
    # deg_L = 4p: the answer is the relative-norm-one torus, given Galois.
    if quad.galois_L is True:
        return _single(torus, RULE_2P)
    if quad.galois_L is None:
        return ClassificationOutcome(
            CONDITIONAL,
            (
                Candidate(torus, condition="L/Q is a Galois extension"),
                _upper(lef, "upper bound otherwise"),
            ),
            RULE_2P,
            ("Galois flag not supplied",),
        )
    return ClassificationOutcome(
        OUT_OF_SCOPE,
        (_upper(torus, "upper bound (norm-one containment)"),),
        RULE_2P,
        ("L/Q not Galois: the n=2p result gives no determination",),
    )


# ---------------------------------------------------------------------------
# General propositions
# ---------------------------------------------------------------------------


# per Albert type, the rule ids at r = 2, at an odd r and at r = 2 (mod 4)
_QUAT_RULES = (RULE_QUAT_M2, RULE_QUAT_M_ODD, RULE_QUAT_4ODD)
_MULTIPLICITY_RULES = {
    "I": (RULE_I_L2, RULE_I_ODD_L, RULE_I_TWICE_ODD),
    "II": _QUAT_RULES,
    "III": _QUAT_RULES,
}


def _classify_multiplicity(profile: HodgeProfile, lef: GroupExpr):
    """Types I-III by the multiplicity r of V over the algebra, r = n/[L:Q]
    for type I and r = m for types II and III: the Lefschetz group at r = 2,
    and the wedge alternative at an odd r and at r = 2 (mod 4) over F = Q."""
    endo = profile.endo
    rule_two, rule_odd, rule_twice_odd = _MULTIPLICITY_RULES[endo.albert_type]
    r = profile.n // endo.deg_L if endo.albert_type == "I" else profile.m
    if r == 2:
        return _single(lef, rule_two)
    if r % 2 == 1:
        return _with_wedge(profile, lef, rule_odd, 2 * r)
    if endo.deg_F != 1 or r % 4 != 2:
        return _fallback(profile, lef)
    notes = []
    if endo.albert_type == "I":
        # the orthogonal factors of dimension n = r the table keeps: SO(n) of
        # D_{n/2}, then SL(2^k) on a middle wedge, read at odd weight only
        head = "SL" if profile.parity == ODD else "SU"
        factors = {f"SO({r})": ("SO", r)}
        if head == "SL" and (k := central_binomial_solve(r)):
            factors[f"SL(2^{k})"] = ("SL", 1 << k)
        notes = [
            f"product alternative {head}(2) x {label} excluded"
            for label, factor in factors.items()
            if exclude_sl2_product([(head, 2), factor])
        ]
    return _with_wedge(profile, lef, rule_twice_odd, 2 * r, notes)


def _classify_iv_torus(
    profile: HodgeProfile, lef: GroupExpr, subfields
) -> ClassificationOutcome:
    """m = 1: the Lefschetz group is the norm-one torus of the CM field.

    A balanced imaginary quadratic subfield cuts the torus down to the
    relative-norm-one subtorus.  That containment is an equality at n = 4
    (Moonen and Zarhin), the one n at which this branch proves it.  At
    n = 1 and n = p (Ribet, Tankeev) ``classify`` answers the Lefschetz
    group before it dispatches, and n = 2p, where equality also needs L/Q
    Galois, has its own rule in ``_classify_2p``.  ``classify`` reaches
    this branch at every other n from one dispatch entry, ahead of the
    n = 4 rule; away from n = 4 it gives bounds only.  Without an
    inventory, ``_no_inventory`` builds the verdict, as for n = 2p.
    """
    equality_known = profile.n == 4
    rule = RULE_N4 if equality_known else RULE_IV_TORUS
    su_le = GroupExpr(FAM_SU_LE, param=profile.endo.deg_F)
    if subfields is None:
        occurs = OCCURS_PROVEN if equality_known else OCCURS_POSSIBLE
        return _no_inventory(lef, su_le, rule, (occurs, occurs))
    balanced = _balanced_any(profile, subfields)
    if any(s.deg_E == 2 for s in balanced):
        if equality_known:
            return _single(su_le, rule)
        return ClassificationOutcome(
            OUT_OF_SCOPE,
            (_upper(lef), _upper(su_le, "upper bound (norm-one containment)")),
            RULE_UPPER,
            ("containment known, equality not proved at this n",),
        )
    bounds = _subfield_bounds(profile, balanced)  # n = 4: refuses degree 4
    if equality_known:
        return _single(lef, rule)
    return ClassificationOutcome(
        OUT_OF_SCOPE,
        (_upper(lef), *bounds),
        RULE_UPPER,
        ("no determination for the torus case at this n",),
    )


def _classify_type_iv(profile: HodgeProfile, lef: GroupExpr, subfields):
    """Type IV with q = 1 and m > 1, by the traces and the inventory.

    Balanced traces with m/2 prime give SU(B,-) at every [L:Q]; at [L:Q] = 2
    coprime ones give the Lefschetz group (Moonen and Zarhin).  This branch
    also builds the trace-absent verdict at [L:Q] = 2, n = 4 included:
    SU(B,-) is proven when m/2 is prime and an upper bound otherwise."""
    endo = profile.endo
    m = profile.m
    traces = endo.cm_traces
    su = GroupExpr(FAM_SU_B, param=m, base_degree=endo.deg_F)
    balanced_traces = traces is not None and all(a == b for a, b in traces)
    coprime_traces = traces is not None and all(math.gcd(a, b) == 1 for a, b in traces)
    if balanced_traces and m % 2 == 0 and _is_prime(m // 2):
        return _single(su, RULE_IV_FULL_CM)
    if endo.deg_L == 2:
        if traces is None:
            cands = (Candidate(lef, condition="coprime extreme multiplicities"),)
            if m % 2 == 0:  # an odd m has no balanced pair (m/2, m/2)
                cond = "balanced extreme multiplicities"
                if _is_prime(m // 2):
                    cands += (Candidate(su, condition=cond),)
                else:
                    cands += (_upper(su, cond + " (upper bound)"),)
            return ClassificationOutcome(
                CONDITIONAL, cands, RULE_IV_QUAD, ("trace data absent",)
            )
        if coprime_traces:
            return _single(lef, RULE_IV_QUAD)
        if balanced_traces:
            return ClassificationOutcome(
                OUT_OF_SCOPE,
                (_upper(lef), _upper(su, "upper bound (balanced multiplicities)")),
                RULE_UPPER,
                ("balanced but m is not twice a prime: no determination",),
            )
        return _fallback(
            profile,
            lef,
            note="multiplicities neither coprime nor balanced: no determination",
        )
    balanced = _balanced_any(profile, subfields)
    if m == 2 and balanced:
        return _single(su, RULE_IV_M2)
    if coprime_traces and any(s.deg_E * 2 == endo.deg_L for s in balanced):
        return _single(su, RULE_IV_INDEX2)
    note = None
    if subfields is None and m % 2 == 0:
        note = f"{_NO_INVENTORY}; only the upper bound is reported"
    return _fallback(profile, lef, note=note, balanced=balanced)


def _fallback(
    profile: HodgeProfile,
    lef: GroupExpr,
    note: Optional[str] = None,
    balanced: Sequence[SubfieldDescriptor] = (),
) -> ClassificationOutcome:
    cands = (_upper(lef), *_subfield_bounds(profile, balanced))
    notes = ("outside the classified cases",)
    if note:
        notes += (note,)
    return ClassificationOutcome(OUT_OF_SCOPE, cands, RULE_UPPER, notes)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def classify(
    profile: HodgeProfile,
    subfields: Optional[Sequence[SubfieldDescriptor]] = None,
) -> ClassificationOutcome:
    """Possible Hodge groups of a realizable profile.

    Raises NotRealizableError when the profile is invalid or matches an
    exclusion; proceeds with conditional status when optional data
    needed by the exclusion catalog is absent.
    """
    verdict = realizable(profile)
    if verdict.realizable is False:
        raise NotRealizableError(verdict.reason)
    for sub in subfields or ():
        _check_subfield(profile, sub)
    lef = _lefschetz_group(profile)
    n = profile.n
    if n == 1:
        out = _single(lef, RULE_N1)
    elif _is_prime(n):
        out = _single(lef, RULE_PRIME)
    elif profile.endo.albert_type == "IV" and profile.endo.q != 1:
        out = _fallback(profile, lef, note="no determination for q=2 at this n")
    elif n % 2 == 0 and _is_prime(n // 2) and (n // 2) % 2 == 1:
        out = _classify_2p(profile, lef, subfields)
    elif profile.endo.albert_type == "IV" and profile.m == 1:
        out = _classify_iv_torus(profile, lef, subfields)
    elif n == 4:
        out = _classify_n4(profile, lef, subfields)
    elif profile.endo.albert_type in _MULTIPLICITY_RULES:
        out = _classify_multiplicity(profile, lef)
    else:
        out = _classify_type_iv(profile, lef, subfields)
    if verdict.realizable is None and out.status == DETERMINED:
        out = ClassificationOutcome(
            CONDITIONAL,
            out.candidates,
            out.applied_rule,
            out.notes + (f"profile not confirmed realizable: {verdict.reason}",),
        )
    return out


# ---------------------------------------------------------------------------
# The n=4 grid
# ---------------------------------------------------------------------------

_IV8_TRACES = ((1, 0), (0, 1), (1, 0), (0, 1))

# One spec per row: Albert type, deg_L, deg_F, q, the weights with an
# entry, further endo data, the subfield inventory, and the candidate shown
# (None: the outcome must have exactly one).
_TABLE3_ROWS = (
    ("I", 1, 1, 1, (1, 2), {}, None, 0),
    ("I", 1, 1, 1, (1, 2), {}, None, 1),
    ("I", 2, 2, 1, (1, 2), {}, None, None),
    ("I", 4, 4, 1, (1,), {}, None, None),
    ("II", 4, 1, 2, (1, 2), {"disc_one": False}, None, None),
    ("II", 8, 2, 2, (1,), {}, None, None),
    ("III", 4, 1, 2, (1, 2), {"disc_one": False}, None, None),
    ("III", 8, 2, 2, (2,), {}, None, None),
    ("IV", 2, 1, 1, (1, 2), {"cm_traces": ((1, 3),)}, None, None),
    ("IV", 2, 1, 1, (1, 2), {"cm_traces": ((2, 2),)}, None, None),
    ("IV", 4, 2, 1, (1, 2), {"cm_traces": ((2, 0), (1, 1))}, None, None),
    ("IV", 8, 4, 1, (1, 2), {"cm_traces": _IV8_TRACES}, (), None),
    (
        "IV", 8, 4, 1, (1, 2), {"cm_traces": _IV8_TRACES},
        (SubfieldDescriptor(deg_E=2, balanced=True),), None,
    ),
)


def table3() -> list[dict]:
    """The 13-row grid of possible Hodge groups at n=4.

    Rows follow the Albert type and the algebra degree; the two
    non-Lefschetz type-I entries (the odd-weight product group and the
    even-weight spin group) share one row, as do the parity-independent
    type IV alternatives.  A row equals the Lefschetz group when the group
    shown is the Lefschetz group at each of its weights.
    """
    rows = []
    for t, dL, dF, q, weights, extra, subs, pick in _TABLE3_ROWS:
        endo = EndomorphismDescriptor(t, dL, dF, q, **extra)
        groups, lef = {}, True
        for w in weights:
            profile = HodgeProfile(weight=w, n=4, endo=endo)
            group = classify(profile, subs).candidates[pick or 0].group
            groups[w] = group.to_json()
            lef = lef and group == _lefschetz_group(profile)
        rows.append(
            {
                "albert_type": t,
                "deg_L": dL,
                "odd": groups.get(1),
                "even": groups.get(2),
                "equals_lefschetz": lef,
            }
        )
    return rows
