"""Realizability of an endomorphism profile for a simple structure.

Beyond the two divisibility bounds checked by validation, a short catalog
of algebra shapes is excluded: five at odd weight and seven at even
weight.  A profile is realizable exactly when it is structurally valid
and matches none of the catalog entries for its parity.  Entries that
consult data the profile omits (the discriminant flag or the CM trace
list) yield a conditional match instead of a verdict.

The catalog is one table, ``_CATALOG``, from which ``ODD_CASES`` and
``EVEN_CASES`` are built once at import; the three Type IV entries that
both parities share (cases 3-5) appear in it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from .core import (
    EVEN,
    ODD,
    HodgeProfile,
    InvalidProfileError,
    validate_profile,
)


@dataclass(frozen=True)
class ExceptionalCase:
    """One catalog entry; match returns True (the profile matches), False
    (it does not), or the name of the missing datum that would decide."""

    parity: str
    index: int
    description: str
    match: Callable[[HodgeProfile], object] = field(compare=False, repr=False)

    def to_json(self) -> dict:
        return {
            "parity": self.parity,
            "index": self.index,
            "description": self.description,
        }


def _type_m(albert_type: str, m: int, p: HodgeProfile):
    return p.endo.albert_type == albert_type and p.m == m


def _type_m_disc(albert_type: str, m: int, p: HodgeProfile):
    if not _type_m(albert_type, m, p):
        return False
    if p.endo.disc_one is None:
        return "disc_one"
    return p.endo.disc_one


def _iv_zero_products(p: HodgeProfile):
    if p.endo.albert_type != "IV":
        return False
    if p.m == 1 and p.endo.q == 1:
        return False
    if p.endo.cm_traces is None:
        return "cm_traces"
    return sum(a * b for a, b in p.endo.cm_traces) == 0


def _iv_all_ones(m: int, q: int, p: HodgeProfile):
    if p.endo.albert_type != "IV" or p.m != m or p.endo.q != q:
        return False
    if p.endo.cm_traces is None:
        return "cm_traces"
    return all(a == 1 and b == 1 for a, b in p.endo.cm_traces)


# (parities, description, predicate), in catalog order within each parity.
_CATALOG = (
    ((ODD,), "Type III and m=1", partial(_type_m, "III", 1)),
    (
        (ODD,),
        "Type III, m=2, disc(B,-)=1 in F*/(F*)^2",
        partial(_type_m_disc, "III", 2),
    ),
    ((EVEN,), "Type II and m=1", partial(_type_m, "II", 1)),
    (
        (EVEN,),
        "Type II, m=2, disc(B,-)=1 in F*/(F*)^2",
        partial(_type_m_disc, "II", 2),
    ),
    (
        (ODD, EVEN),
        "Type IV and sum of n_sigma*n_sigma_bar = 0, unless m=q=1",
        _iv_zero_products,
    ),
    (
        (ODD, EVEN),
        "Type IV, m=2, q=1, and n_sigma=n_sigma_bar=1 for all i",
        partial(_iv_all_ones, 2, 1),
    ),
    (
        (ODD, EVEN),
        "Type IV, m=1, q=2, and n_sigma=n_sigma_bar=1 for all i",
        partial(_iv_all_ones, 1, 2),
    ),
    ((EVEN,), "Type I and m=2", partial(_type_m, "I", 2)),
    (
        (EVEN,),
        "Type I, m=4, and (V,<,>) has discriminant 1 in F*/(F*)^2",
        partial(_type_m_disc, "I", 4),
    ),
)


def _cases(parity: str) -> tuple[ExceptionalCase, ...]:
    entries = [(d, pred) for ps, d, pred in _CATALOG if parity in ps]
    return tuple(
        ExceptionalCase(parity, i, d, pred)
        for i, (d, pred) in enumerate(entries, 1)
    )


ODD_CASES = _cases(ODD)
EVEN_CASES = _cases(EVEN)


@dataclass(frozen=True)
class ExceptionalMatch:
    """A catalog hit; conditional=True means required data was absent."""

    case: ExceptionalCase
    conditional: bool = False
    missing: Optional[str] = None

    def to_json(self) -> dict:
        out = self.case.to_json()
        out["conditional"] = self.conditional
        if self.missing is not None:
            out["missing"] = self.missing
        return out


def _match(profile: HodgeProfile) -> Optional[ExceptionalMatch]:
    pending: Optional[ExceptionalMatch] = None
    for case in ODD_CASES if profile.parity == ODD else EVEN_CASES:
        verdict = case.match(profile)
        if verdict is True:
            return ExceptionalMatch(case)
        if isinstance(verdict, str) and pending is None:
            pending = ExceptionalMatch(case, conditional=True, missing=verdict)
    return pending


def is_exceptional(profile: HodgeProfile) -> Optional[ExceptionalMatch]:
    """Match the profile against the catalog, in catalog order.

    A definite hit wins over a conditional one regardless of order; the
    first conditional hit is reported only when no later entry matches
    outright.  Returns None when no entry matches or could match.
    """
    if validate_profile(profile):
        raise InvalidProfileError("is_exceptional requires a valid profile")
    return _match(profile)


@dataclass(frozen=True)
class RealizabilityVerdict:
    """realizable is True, False, or None when data is missing."""

    realizable: Optional[bool]
    case: Optional[ExceptionalMatch] = None
    violations: tuple = ()

    @property
    def reason(self) -> str:
        if self.violations:
            return "invalid profile: " + "; ".join(
                v.message for v in self.violations
            )
        if self.case is None:
            return "valid and not exceptional"
        if self.case.conditional:
            return (
                f"possibly exceptional ({self.case.case.parity} case "
                f"{self.case.case.index}); missing {self.case.missing}"
            )
        return (
            f"exceptional ({self.case.case.parity} case "
            f"{self.case.case.index}): {self.case.case.description}"
        )

    def to_json(self) -> dict:
        out: dict = {"realizable": self.realizable}
        if self.case is not None:
            out["case"] = self.case.to_json()
        out["violations"] = [v.to_json() for v in self.violations]
        out["reason"] = self.reason
        return out


def realizable(profile: HodgeProfile) -> RealizabilityVerdict:
    """Tri-state realizability: valid and no exceptional case matches."""
    violations = validate_profile(profile)
    if violations:
        return RealizabilityVerdict(False, violations=tuple(violations))
    match = _match(profile)
    if match is None:
        return RealizabilityVerdict(True)
    if match.conditional:
        return RealizabilityVerdict(None, case=match)
    return RealizabilityVerdict(False, case=match)
