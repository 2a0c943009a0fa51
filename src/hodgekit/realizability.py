"""Realizability of an endomorphism profile for a simple structure.

Beyond the two divisibility bounds checked by validation, a short catalog
of algebra shapes is excluded: five at odd weight and seven at even
weight.  A profile is realizable exactly when it is structurally valid
and matches none of the catalog entries for its parity.  Entries that
consult data the profile omits (the discriminant flag or the CM trace
list) yield a conditional match instead of a verdict.

The catalog is one table, ``_CATALOG``, from which ``ODD_CASES`` and
``EVEN_CASES`` are built once at import; the three Type IV entries that
both parities share (cases 3-5) appear in it once.  Each entry names its
Albert type, and ``_CHECKS[parity][type]`` holds that type's entries in
catalog order, so a profile runs only those, with m computed once (type I
at odd weight runs none).  A case keeps its index in the whole parity;
entries of other types never match, so the answer is the whole scan's.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple, Optional

from .core import (
    ALBERT_TYPES,
    EVEN,
    ODD,
    EndomorphismDescriptor,
    HodgeProfile,
    InvalidProfileError,
    validate_profile,
)


class ExceptionalCase(NamedTuple):
    """One catalog entry: its parity, 1-based index and description."""

    parity: str
    index: int
    description: str

    def to_json(self) -> dict:
        return self._asdict()


def _m_is(m: int, endo: EndomorphismDescriptor, profile_m: int):
    return profile_m == m


def _m_is_disc(m: int, endo: EndomorphismDescriptor, profile_m: int):
    if profile_m != m:
        return False
    if endo.disc_one is None:
        return "disc_one"
    return endo.disc_one


def _iv_zero_products(endo: EndomorphismDescriptor, m: int):
    if m == 1 and endo.q == 1:
        return False
    if endo.cm_traces is None:
        return "cm_traces"
    return sum(a * b for a, b in endo.cm_traces) == 0


def _iv_all_ones(m: int, q: int, endo: EndomorphismDescriptor, profile_m: int):
    if profile_m != m or endo.q != q:
        return False
    if endo.cm_traces is None:
        return "cm_traces"
    return all(a == 1 and b == 1 for a, b in endo.cm_traces)


# (parities, Albert type, description, predicate), in catalog order within
# each parity.  A predicate is called with the profile's descriptor and m
# only for a profile of its entry's type, and returns True (the profile
# matches), False (it does not), or the name of the missing datum that
# would decide.
_CATALOG = (
    ((ODD,), "III", "Type III and m=1", partial(_m_is, 1)),
    (
        (ODD,),
        "III",
        "Type III, m=2, disc(B,-)=1 in F*/(F*)^2",
        partial(_m_is_disc, 2),
    ),
    ((EVEN,), "II", "Type II and m=1", partial(_m_is, 1)),
    (
        (EVEN,),
        "II",
        "Type II, m=2, disc(B,-)=1 in F*/(F*)^2",
        partial(_m_is_disc, 2),
    ),
    (
        (ODD, EVEN),
        "IV",
        "Type IV and sum of n_sigma*n_sigma_bar = 0, unless m=q=1",
        _iv_zero_products,
    ),
    (
        (ODD, EVEN),
        "IV",
        "Type IV, m=2, q=1, and n_sigma=n_sigma_bar=1 for all i",
        partial(_iv_all_ones, 2, 1),
    ),
    (
        (ODD, EVEN),
        "IV",
        "Type IV, m=1, q=2, and n_sigma=n_sigma_bar=1 for all i",
        partial(_iv_all_ones, 1, 2),
    ),
    ((EVEN,), "I", "Type I and m=2", partial(_m_is, 2)),
    (
        (EVEN,),
        "I",
        "Type I, m=4, and (V,<,>) has discriminant 1 in F*/(F*)^2",
        partial(_m_is_disc, 4),
    ),
)


def _checks(parity: str) -> tuple[tuple, dict]:
    """The parity's cases, in catalog order, and its (case, predicate) pairs
    keyed by Albert type; each case keeps its index in the whole parity.  The
    predicate stays out of the record, so cases compare, hash and print by
    their data alone."""
    cases: list[ExceptionalCase] = []
    by_type: dict[str, list] = {albert_type: [] for albert_type in ALBERT_TYPES}
    for parities, albert_type, description, predicate in _CATALOG:
        if parity in parities:
            case = ExceptionalCase(parity, len(cases) + 1, description)
            cases.append(case)
            by_type[albert_type].append((case, predicate))
    return tuple(cases), {t: tuple(pairs) for t, pairs in by_type.items()}


ODD_CASES, _ODD_CHECKS = _checks(ODD)
EVEN_CASES, _EVEN_CHECKS = _checks(EVEN)
_CHECKS = {ODD: _ODD_CHECKS, EVEN: _EVEN_CHECKS}


class ExceptionalMatch(NamedTuple):
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
    endo = profile.endo
    checks = _CHECKS[profile.parity][endo.albert_type]
    if not checks:
        return None
    m = profile.m
    pending: Optional[ExceptionalMatch] = None
    for case, match in checks:
        verdict = match(endo, m)
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


class RealizabilityVerdict(NamedTuple):
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
