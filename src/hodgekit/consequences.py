"""Hodge-conjecture bookkeeping for simple abelian varieties of dimension 2p.

This module is a decision ledger, not a prover: every verdict names the
structural hypothesis that produced it.  The inputs are the weight-1
profile of the variety and the caller-supplied inventory of CM fields
acting with balanced extreme multiplicities (the set W(A)); membership
in that set is data the abstract profile cannot derive.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .classifier import NotRealizableError, SubfieldDescriptor, classify
from .classifier import _balanced_quadratic, su_constraint
from .core import EndomorphismDescriptor, HodgeProfile, InvalidProfileError
from .numth import is_prime

PROVEN = "proven"
OPEN = "open"
UNKNOWN = "unknown"


class _AbelianFields(NamedTuple):
    dim: int
    endo: EndomorphismDescriptor
    subfields: tuple[SubfieldDescriptor, ...]


class AbelianProfile(_AbelianFields):
    """A simple complex abelian variety of dimension 2p, via its profile.
    Construction refuses the data that ``classify`` refuses."""

    __slots__ = ()

    def __new__(cls, dim, endo, subfields=()):
        self = tuple.__new__(cls, (dim, endo, tuple(subfields)))
        if self.dim % 2 != 0 or self.p == 2 or not is_prime(self.p):
            raise InvalidProfileError(
                f"dimension must be 2p with p an odd prime, got {self.dim}"
            )
        profile = self.hodge_profile()
        try:
            classify(profile, self.subfields)
        except NotRealizableError as exc:
            raise InvalidProfileError(
                f"endomorphism data not realizable at weight 1: {exc}"
            ) from None
        for sub in self.subfields:
            su_constraint(profile, sub)
        return self

    @property
    def p(self) -> int:
        return self.dim // 2

    def hodge_profile(self) -> HodgeProfile:
        return HodgeProfile(weight=1, n=self.dim, endo=self.endo)

    def balanced_quadratic(self) -> Optional[SubfieldDescriptor]:
        return _balanced_quadratic(self.hodge_profile(), self.subfields)


def _case(ap: AbelianProfile) -> tuple[Optional[int], str]:
    """Which hypothesis family applies: 1 (types I/II/III), 2 (type IV
    with a balanced imaginary quadratic field), or None."""
    if ap.endo.albert_type in ("I", "II", "III"):
        return 1, f"type {ap.endo.albert_type} endomorphism algebra"
    quad = ap.balanced_quadratic()
    if quad is None:
        return None, "type IV without a balanced imaginary quadratic field"
    if ap.endo.deg_L == 4 * ap.p and quad.galois_L is not True:
        return None, (
            "type IV with [L:Q]=4p but the Galois hypothesis is not affirmed"
        )
    return 2, "type IV with a balanced imaginary quadratic field in W(A)"


def murty_equal(ap: AbelianProfile) -> tuple[Optional[bool], str]:
    """Whether the Hodge group equals the divisor-and-Weil-classes group.

    True under either hypothesis family; outside them the question is
    left unknown rather than answered.
    """
    case, desc = _case(ap)
    if case == 1:
        return True, (
            f"{desc}: the full centralizer bound collapses and the Hodge "
            "group fills the Lefschetz group, which already equals the "
            "divisor-Weil group for these types"
        )
    if case == 2:
        return True, (
            f"{desc}: the Hodge group is exactly the Lefschetz group cut "
            "by the special-unitary constraint of the balanced field, "
            "which is the divisor-Weil group"
        )
    return None, f"{desc}: outside the proved hypotheses, status unknown"


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
    t = ap.endo.albert_type
    case, desc = _case(ap)
    if t in ("I", "II"):
        return HodgeStatus(
            divisor_weil_generated=True,
            hc_all_powers=PROVEN,
            ghc_reduction=True,
            rationale=(
                f"type {t}: Weil classes of the balanced subfields are "
                "divisor classes, so the Hodge ring of every power is "
                "generated by divisors and both conjectures hold"
            ),
        )
    if t == "III":
        return HodgeStatus(
            divisor_weil_generated=True,
            hc_all_powers=OPEN,
            ghc_reduction=True,
            rationale=(
                "type III: divisor and Weil classes generate, exceptional "
                "Weil classes remain possible, and the general conjecture "
                "reduces to the ordinary one for all powers"
            ),
        )
    # Type IV
    if case == 2:
        reduction = ap.endo.deg_L != 4 * ap.p
        why = (
            "the reduction hypothesis excludes [L:Q]=4p"
            if not reduction
            else "[L:Q] differs from 4p, so the reduction applies"
        )
        return HodgeStatus(
            divisor_weil_generated=True,
            hc_all_powers=OPEN,
            ghc_reduction=reduction,
            rationale=f"{desc}; {why}",
        )
    return HodgeStatus(
        divisor_weil_generated=None,
        hc_all_powers=OPEN,
        ghc_reduction=False,
        rationale=f"{desc}; no verdict available",
    )
