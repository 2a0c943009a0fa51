"""Shared domain types: endomorphism-algebra profiles and symbolic groups.

A profile records the discrete data attached to a simple polarizable
rational Hodge structure of dimension 2n whose Hodge decomposition is
concentrated in the two extreme bidegrees: the weight, the half-dimension
n, and a description of the endomorphism division algebra in Albert's
classification.  Number fields are abstracted to their degrees; trace
data over a CM center is carried as a list of nonnegative integer pairs.
Every JSON object read from outside goes through ``_require_object``, and
every integer field through ``_require_int``.

The package's records are ``typing.NamedTuple`` classes: immutable,
hashable and compared field by field.  A record that checks or
normalises its fields is a thin subclass whose ``__new__`` does it, so
``_make`` and ``_replace``, which skip ``__new__``, are not used.  Being
tuples, records also compare equal to a plain tuple of the same fields.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

ALBERT_TYPES = ("I", "II", "III", "IV")

ODD = "odd"
EVEN = "even"


class InvalidProfileError(ValueError):
    """Raised by operations whose precondition requires a valid profile."""


class Violation(NamedTuple):
    """One violated structural invariant, with a stable machine code."""

    code: str
    message: str

    def to_json(self) -> dict:
        return self._asdict()


class _EndomorphismFields(NamedTuple):
    albert_type: str
    deg_L: int
    deg_F: int
    q: int
    cm_traces: Optional[tuple[tuple[int, int], ...]]
    disc_one: Optional[bool]


class EndomorphismDescriptor(_EndomorphismFields):
    """Albert-type descriptor of the endomorphism division algebra L.

    deg_L is [L:Q], deg_F is the degree of the maximal totally real
    subfield F of the center, and q**2 is the degree of L over its
    center.  cm_traces, for Type IV only, lists the pairs
    (n_sigma, n_sigma_bar) indexed by the conjugate pairs of embeddings
    of the CM center; disc_one flags discriminant 1 where the
    exceptional-case catalog consults it (its meaning is case dependent:
    disc of (B, -) for quaternionic cases, disc of the polarized space
    for the totally real m=4 case).
    """

    __slots__ = ()

    def __new__(cls, albert_type, deg_L, deg_F=1, q=1, cm_traces=None, disc_one=None):
        if cm_traces is not None:
            cm_traces = tuple(
                (_require_int(a, "cm_traces"), _require_int(b, "cm_traces"))
                for a, b in cm_traces
            )
        return tuple.__new__(cls, (albert_type, deg_L, deg_F, q, cm_traces, disc_one))


class HodgeProfile(NamedTuple):
    """Weight, half-dimension n, and endomorphism data of one structure."""

    weight: int
    n: int
    endo: EndomorphismDescriptor

    @property
    def parity(self) -> str:
        return ODD if self.weight % 2 == 1 else EVEN

    @property
    def m(self) -> int:
        """Matrix size of the centralizer of L, from 2n = m [L:Q]."""
        if self.endo.deg_L <= 0 or (2 * self.n) % self.endo.deg_L != 0:
            raise InvalidProfileError(
                f"[L:Q]={self.endo.deg_L} does not divide 2n={2 * self.n}"
            )
        return (2 * self.n) // self.endo.deg_L

    @property
    def g(self) -> int:
        """Degree of the maximal totally real subfield of the center."""
        return self.endo.deg_F


# ---------------------------------------------------------------------------
# Symbolic algebraic groups
# ---------------------------------------------------------------------------

# Families of Q-groups appearing in the classification.  Split symplectic
# and special orthogonal groups act on V viewed over the totally real field;
# the (B,-) families are the isometry groups of the centralizer algebra
# with its involution, recorded only up to the complex isomorphism class
# plus a form tag, which is the resolution at which every statement in
# scope identifies groups.
FAM_SP = "Sp"  # split Sp(2k) on V over F
FAM_SO = "SO"  # split SO(2k) on V over F
FAM_SP_B = "Sp(B)"  # form of Sp(2k) from a symplectic involution
FAM_O_PLUS_B = "O+(B)"  # form of SO(2k) from an orthogonal involution
FAM_U_B = "U(B)"  # form of GL(k) from a unitary involution
FAM_SU_B = "SU(B)"  # form of SL(k), reduced-norm-one part of U(B)
FAM_SU_POW2 = "SU(2^k)"  # special unitary form of SL(2^k), wedge action
FAM_U_L = "U_L"  # norm-one torus of a CM field, rank r
FAM_SU_LE = "SU_{L/E}"  # relative-norm-one subtorus, rank r-1
FAM_SL2_SO4 = "SL(2)xSO(4)"
FAM_SO7 = "SO(7)"

GROUP_FAMILIES = (
    FAM_SP,
    FAM_SO,
    FAM_SP_B,
    FAM_O_PLUS_B,
    FAM_U_B,
    FAM_SU_B,
    FAM_SU_POW2,
    FAM_U_L,
    FAM_SU_LE,
    FAM_SL2_SO4,
    FAM_SO7,
)

REP_STANDARD = "standard"
REP_SPIN = "spin"
REP_EXTERIOR = "exterior_power"
REP_PRODUCT = "product_of_standards"
REP_NONE = "none"

# Families whose param is the k of Sp(2k)/SO(2k), of GL(k)/SL(k), the k of
# SL(2^k), or the rank r of the ambient torus.
_PARAMLESS = {FAM_SL2_SO4, FAM_SO7}
_TORI = {FAM_U_L, FAM_SU_LE}


class _GroupFields(NamedTuple):
    family: str
    param: Optional[int]
    base_degree: int
    rep: str
    rep_param: Optional[int]


class GroupExpr(_GroupFields):
    """A symbolic Q-algebraic group with its representation tag.

    base_degree g means restriction of scalars from a totally real field
    of degree g over Q (1 = no restriction); param carries the k or r the
    family needs.  Equality is field-by-field after normalization.
    """

    __slots__ = ()

    def __new__(
        cls, family, param=None, base_degree=1, rep=REP_STANDARD, rep_param=None
    ):
        if family not in GROUP_FAMILIES:
            raise ValueError(f"unknown group family {family!r}")
        if family in _PARAMLESS:
            param = None
        elif param is None or param < 1:
            raise ValueError(f"family {family} needs a positive param")
        if base_degree < 1:
            raise ValueError("base_degree must be >= 1")
        if family in _TORI:
            rep = REP_NONE
        if rep != REP_EXTERIOR:
            rep_param = None
        elif rep_param is None or rep_param < 1:
            raise ValueError("exterior_power rep needs rep_param j >= 1")
        return tuple.__new__(cls, (family, param, base_degree, rep, rep_param))

    def label(self) -> str:
        """Human-readable name, close to the usual classification tables."""
        res = "" if self.base_degree == 1 else "R_{F/Q}"
        fam = self.family
        if fam == FAM_SP:
            return f"Sp({2 * self.param})" if not res else res + "Sp(_FV)"
        if fam == FAM_SO:
            return f"SO({2 * self.param})" if not res else res + "SO(_FV)"
        if fam == FAM_SP_B:
            return res + ("Sp(L,-)" if self.param == 1 else "Sp(B,-)")
        if fam == FAM_O_PLUS_B:
            return res + ("O+(L,-)" if self.param == 1 else "O+(B,-)")
        if fam == FAM_U_B:
            return res + "U(B,-)"
        if fam == FAM_SU_B:
            return res + "SU(B,-)"
        if fam == FAM_SU_POW2:
            return res + f"SU(2^{self.param})"
        if fam == FAM_U_L:
            return "U_L"
        if fam == FAM_SU_LE:
            return "SU_{L/E}"
        return fam

    def to_json(self) -> dict:
        out: dict = {"family": self.family}
        if self.param is not None:
            out["param"] = self.param
        out["base_degree"] = self.base_degree
        out["rep"] = self.rep
        if self.rep_param is not None:
            out["rep_param"] = self.rep_param
        out["label"] = self.label()
        return out

    @classmethod
    def from_json(cls, data: dict) -> "GroupExpr":
        return cls(**{name: data[name] for name in cls._fields if name in data})


# ---------------------------------------------------------------------------
# Structural validation
# ---------------------------------------------------------------------------


def validate_profile(profile: HodgeProfile) -> list[Violation]:
    """Return every violated structural invariant; empty means valid.

    Violations are data, not failures: the list is deterministic and
    ordered by check, so callers may assert on codes.  A number that is
    not an int (a bool included) is reported alone, before any arithmetic.
    """
    endo = profile.endo
    out: list[Violation] = []

    def bad(code: str, message: str) -> None:
        out.append(Violation(code, message))

    if not (
        _is_int(profile.weight) and _is_int(profile.n)
        and _is_int(endo.deg_L) and _is_int(endo.deg_F) and _is_int(endo.q)
    ):
        values = (profile.weight, profile.n, endo.deg_L, endo.deg_F, endo.q)
        for name, value in zip(("weight", "n", "deg_L", "deg_F", "q"), values):
            if not _is_int(value):
                bad("integer_fields", f"{name} must be an integer, got {value!r}")
        return out
    if profile.weight < 1:
        bad("weight_positive", f"weight must be >= 1, got {profile.weight}")
    if profile.n < 1:
        bad("n_positive", f"n must be >= 1, got {profile.n}")
    if endo.albert_type not in ALBERT_TYPES:
        bad("albert_type", f"unknown Albert type {endo.albert_type!r}")
        return out
    if endo.deg_L < 1 or endo.deg_F < 1 or endo.q < 1:
        bad("degrees_positive", "deg_L, deg_F and q must all be >= 1")
        return out

    t = endo.albert_type
    if t == "I":
        if endo.q != 1:
            bad("type_i_q", f"Type I forces q=1, got q={endo.q}")
        if endo.deg_L != endo.deg_F:
            bad(
                "type_i_degrees",
                f"Type I forces [L:Q]=[F:Q], got {endo.deg_L} != {endo.deg_F}",
            )
    elif t in ("II", "III"):
        if endo.q != 2:
            bad("type_ii_iii_q", f"Type {t} forces q=2, got q={endo.q}")
        if endo.deg_L != 4 * endo.deg_F:
            bad(
                "type_ii_iii_degrees",
                f"Type {t} forces [L:Q]=4[F:Q], got {endo.deg_L} != 4*{endo.deg_F}",
            )
    else:  # Type IV: center is CM of degree 2 deg_F and [L:center] = q**2
        if endo.deg_L != 2 * endo.deg_F * endo.q * endo.q:
            bad(
                "type_iv_degrees",
                f"Type IV forces [L:Q]=2[F:Q]q^2, got {endo.deg_L} != "
                f"2*{endo.deg_F}*{endo.q}^2",
            )

    if profile.n >= 1:
        if (2 * profile.n) % endo.deg_L != 0:
            bad(
                "deg_l_divides_2n",
                f"[L:Q]={endo.deg_L} must divide 2n={2 * profile.n}",
            )
        if profile.n % endo.deg_F != 0:
            bad(
                "deg_f_divides_n",
                f"[F:Q]={endo.deg_F} must divide n={profile.n}",
            )

    if endo.cm_traces is not None:
        if t != "IV":
            bad("traces_type_iv_only", "cm_traces are only meaningful for Type IV")
        else:
            if len(endo.cm_traces) != endo.deg_F:
                bad(
                    "traces_length",
                    f"cm_traces must have g={endo.deg_F} pairs, got "
                    f"{len(endo.cm_traces)}",
                )
            if any(a < 0 or b < 0 for a, b in endo.cm_traces):
                bad("traces_nonnegative", "trace entries must be nonnegative")
            if (2 * profile.n) % endo.deg_L == 0:
                mq = ((2 * profile.n) // endo.deg_L) * endo.q
                for i, (a, b) in enumerate(endo.cm_traces):
                    if a + b != mq:
                        bad(
                            "traces_pair_sum",
                            f"pair {i} sums to {a + b}, expected mq={mq}",
                        )
    return out


def require_valid(profile: HodgeProfile) -> None:
    violations = validate_profile(profile)
    if violations:
        raise InvalidProfileError(
            "; ".join(v.message for v in violations)
        )


# ---------------------------------------------------------------------------
# Canonical JSON encoding of profiles
# ---------------------------------------------------------------------------

def profile_to_json(profile: HodgeProfile) -> dict:
    """Serialize with canonical field order (stable for golden files)."""
    endo: dict = {
        "type": profile.endo.albert_type,
        "deg_L": profile.endo.deg_L,
        "deg_F": profile.endo.deg_F,
        "q": profile.endo.q,
    }
    if profile.endo.cm_traces is not None:
        endo["cm_traces"] = [list(p) for p in profile.endo.cm_traces]
    if profile.endo.disc_one is not None:
        endo["disc_one"] = profile.endo.disc_one
    return {"weight": profile.weight, "n": profile.n, "endo": endo}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(value, where: str) -> int:
    if not _is_int(value):
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return value


def _require_object(data, name: str, required: tuple, optional: tuple = ()) -> None:
    """Refuse ``data`` unless it is a JSON object with no field missing or unknown."""
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be a JSON object")
    extra = set(data).difference(required, optional)
    if extra:
        raise ValueError(f"unknown {name} fields: {sorted(extra)}")
    for key in required:
        if key not in data:
            raise ValueError(f"{name} is missing required field {key!r}")


def _endo_from_json(raw) -> EndomorphismDescriptor:
    """Parse an ``endo`` object, rejecting unknown fields."""
    _require_object(
        raw, "endo", ("type", "deg_L", "deg_F", "q"), ("cm_traces", "disc_one")
    )
    if not isinstance(raw["type"], str):
        raise ValueError(f"type must be a string, got {raw['type']!r}")
    traces = raw.get("cm_traces")
    if traces is not None:
        if not isinstance(traces, list) or any(
            not isinstance(p, list) or len(p) != 2 for p in traces
        ):
            raise ValueError("cm_traces must be a list of [int, int] pairs")
        # The descriptor checks each entry.  The pairs are still built here
        # because classify_sweep's op_tail_ms reads where garbage
        # collections land, and they move with the allocations of a parse.
        traces = tuple((a, b) for a, b in traces)
    disc = raw.get("disc_one")
    if disc is not None and not isinstance(disc, bool):
        raise ValueError("disc_one must be a boolean")
    return EndomorphismDescriptor(
        albert_type=raw["type"],
        deg_L=_require_int(raw["deg_L"], "deg_L"),
        deg_F=_require_int(raw["deg_F"], "deg_F"),
        q=_require_int(raw["q"], "q"),
        cm_traces=traces,
        disc_one=disc,
    )


def profile_from_json(data: dict) -> HodgeProfile:
    """Parse a profile object, rejecting unknown fields."""
    _require_object(data, "profile", ("weight", "n", "endo"))
    endo = _endo_from_json(data["endo"])
    return HodgeProfile(
        weight=_require_int(data["weight"], "weight"),
        n=_require_int(data["n"], "n"),
        endo=endo,
    )
