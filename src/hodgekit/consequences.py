"""Hodge-conjecture bookkeeping for simple abelian varieties of dimension 2p.

A decision ledger, not a prover: one decision, ``_family``, the one reader
of the Albert type, names the hypothesis family a variety meets, and one
table, ``_LEDGER``, gives each family its answers and their reasons.  For
type IV the decision reads the n = 2p verdict of ``classify``, the one
place that decides it from the caller's inventory W(A) of CM fields acting
with balanced extreme multiplicities (data the profile cannot derive), and
that cross-checks every field of it against the trace data.  Murty's
equality (Math. Ann. 268 (1984)) is one column: the Hodge group is the
divisor-and-Weil group exactly when those classes generate the Hodge ring
of every power, so it is also ``divisor_weil_generated``.  Murty's
criterion at other dimensions would be one more row.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .classifier import NotRealizableError, SubfieldDescriptor, classify
from .core import FAM_SU_LE, EndomorphismDescriptor, HodgeProfile, InvalidProfileError
from .numth import _require_int, is_prime

PROVEN = "proven"
OPEN = "open"


class _AbelianFields(NamedTuple):
    dim: int
    endo: EndomorphismDescriptor
    subfields: tuple[SubfieldDescriptor, ...]


class AbelianProfile(_AbelianFields):
    """A simple complex abelian variety of dimension 2p, via its profile.
    Construction refuses the data that ``classify`` refuses, and nothing
    else: at dimension 2p type IV has q = 1 (2[F:Q]q^2 divides 4p), so
    the n = 2p rule checks every subfield, and types I-III carry no
    traces to check one against.  No __slots__: the verdict of that
    ``classify`` call is kept in the instance dict, and the ledger reads
    it."""

    def __new__(cls, dim, endo, subfields=()):
        _require_int(dim, "dim")
        self = tuple.__new__(cls, (dim, endo, tuple(subfields)))
        if self.dim % 2 != 0 or self.p == 2 or not is_prime(self.p):
            raise InvalidProfileError(
                f"dimension must be 2p with p an odd prime, got {self.dim}"
            )
        try:
            self._verdict = classify(self.hodge_profile(), self.subfields)
        except NotRealizableError as exc:
            raise InvalidProfileError(
                f"endomorphism data not realizable at weight 1: {exc}"
            ) from None
        return self

    @property
    def p(self) -> int:
        return self.dim // 2

    def hodge_profile(self) -> HodgeProfile:
        return HodgeProfile(weight=1, n=self.dim, endo=self.endo)


_IV_BALANCED = "type IV with a balanced imaginary quadratic field in W(A)"
_IV_TORUS = "type IV with [L:Q]=4p but the Galois hypothesis is not affirmed"
_IV_NONE = "type IV without a balanced imaginary quadratic field"


def _family(ap: AbelianProfile) -> str:
    """Type IV is balanced when the n = 2p rule gives one unconditional
    group, else the verdict leads with the torus or the Lefschetz bound;
    the status, lowered by an unconfirmed realizability, is not read."""
    if ap.endo.albert_type != "IV":
        return ap.endo.albert_type
    first, *rest = ap._verdict.candidates
    if not rest and not first.condition:
        return _IV_BALANCED
    return _IV_TORUS if first.group.family == FAM_SU_LE else _IV_NONE


class _Row(NamedTuple):
    desc: str
    equal: Optional[bool]  # Murty's equality, and so divisor_weil_generated
    why_equal: str
    hc_all_powers: str
    ghc_reduction: Optional[bool]  # None: [L:Q] != 4p; the reason fills "{}"
    rationale: str


_FILLS = (
    "the full centralizer bound collapses and the Hodge group fills the "
    "Lefschetz group, which already equals the divisor-Weil group for "
    "these types"
)
_UNKNOWN = "outside the proved hypotheses, status unknown"
_NO_VERDICT = "; no verdict available"

_LEDGER = {
    **{
        t: _Row(
            f"type {t} endomorphism algebra", True, _FILLS, PROVEN, True,
            f"type {t}: Weil classes of the balanced subfields are divisor "
            "classes, so the Hodge ring of every power is generated by "
            "divisors and both conjectures hold",
        )
        for t in ("I", "II")
    },
    "III": _Row(
        "type III endomorphism algebra", True, _FILLS, OPEN, True,
        "type III: divisor and Weil classes generate, exceptional Weil "
        "classes remain possible, and the general conjecture reduces to "
        "the ordinary one for all powers",
    ),
    _IV_BALANCED: _Row(
        _IV_BALANCED, True,
        "the Hodge group is exactly the Lefschetz group cut by the "
        "special-unitary constraint of the balanced field, which is the "
        "divisor-Weil group",
        OPEN, None, _IV_BALANCED + "; {}",
    ),
    _IV_TORUS: _Row(_IV_TORUS, None, _UNKNOWN, OPEN, False, _IV_TORUS + _NO_VERDICT),
    _IV_NONE: _Row(_IV_NONE, None, _UNKNOWN, OPEN, False, _IV_NONE + _NO_VERDICT),
}


def murty_equal(ap: AbelianProfile) -> tuple[Optional[bool], str]:
    """Whether the Hodge group equals the divisor-and-Weil-classes group:
    True under a proved hypothesis family, else None (unknown), and why."""
    row = _LEDGER[_family(ap)]
    return row.equal, f"{row.desc}: {row.why_equal}"


class HodgeStatus(NamedTuple):
    divisor_weil_generated: Optional[bool]
    hc_all_powers: str  # proven | open
    ghc_reduction: bool
    rationale: str

    def to_json(self) -> dict:
        return self._asdict()


def hodge_status(ap: AbelianProfile) -> HodgeStatus:
    """Divisor/Weil generation, Hodge-conjecture status, and whether the
    general conjecture reduces to the ordinary one for all powers."""
    row = _LEDGER[_family(ap)]
    reduction, rationale = row.ghc_reduction, row.rationale
    if reduction is None:
        reduction = ap.endo.deg_L != 4 * ap.p
        rationale = rationale.format(
            "[L:Q] differs from 4p, so the reduction applies"
            if reduction
            else "the reduction hypothesis excludes [L:Q]=4p"
        )
    return HodgeStatus(row.equal, row.hc_all_powers, reduction, rationale)
