"""Hodge-conjecture bookkeeping for simple abelian varieties of dimension 2p.

A decision ledger, not a prover: every verdict names the hypothesis that
produced it.  Types I-III always meet one.  For type IV the ledger reads
the n = 2p verdict of ``classify``, the one place that decides it from
the caller's inventory of CM fields acting with balanced extreme
multiplicities (the set W(A), data the profile cannot derive), and that
cross-checks every field of the inventory against the trace data.
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


def _hypothesis(ap: AbelianProfile) -> tuple[bool, str]:
    """Whether a proved hypothesis family applies, and which.  Type IV
    qualifies when the n = 2p rule gives one unconditional group; else
    it leads with the torus ([L:Q]=4p, Galois flag not true) or the
    Lefschetz bound.  The status is not read: an unconfirmed
    realizability lowers it to conditional over the same candidates."""
    if ap.endo.albert_type != "IV":
        return True, f"type {ap.endo.albert_type} endomorphism algebra"
    candidates = ap._verdict.candidates
    first = candidates[0]
    if len(candidates) == 1 and not first.condition:
        return True, "type IV with a balanced imaginary quadratic field in W(A)"
    if first.group.family == FAM_SU_LE:
        return False, (
            "type IV with [L:Q]=4p but the Galois hypothesis is not affirmed"
        )
    return False, "type IV without a balanced imaginary quadratic field"


def murty_equal(ap: AbelianProfile) -> tuple[Optional[bool], str]:
    """Whether the Hodge group equals the divisor-and-Weil-classes group.

    True under either hypothesis family; outside them the question is
    left unknown rather than answered.
    """
    holds, desc = _hypothesis(ap)
    if not holds:
        return None, f"{desc}: outside the proved hypotheses, status unknown"
    if ap.endo.albert_type != "IV":
        return True, (
            f"{desc}: the full centralizer bound collapses and the Hodge "
            "group fills the Lefschetz group, which already equals the "
            "divisor-Weil group for these types"
        )
    return True, (
        f"{desc}: the Hodge group is exactly the Lefschetz group cut "
        "by the special-unitary constraint of the balanced field, "
        "which is the divisor-Weil group"
    )


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
    holds, desc = _hypothesis(ap)
    if holds:
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
