"""Root systems, minuscule weights, and the admissible-factor filter.

Everything is computed in exact arithmetic from the Cartan matrix:
positive roots by reflection closure, representation dimensions by the
Weyl formula over Fractions, self-duality by dominantizing -lambda, and
the orthogonal/symplectic sign of a self-dual representation by the
parity of the pairing with the sum of positive coroots.  Nothing in the
minuscule table is hardcoded; the table is what the tests check against.

Conventions: cartan[i][j] = <alpha_i, alpha_j^vee>, simple roots indexed
from 0 internally, fundamental weights 1-based in the public API to
match the usual labelling of Dynkin diagrams (Bourbaki numbering).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional

ORTHOGONAL = "orthogonal"
SYMPLECTIC = "symplectic"
NON_SELF_DUAL = "non_self_dual"

_COUNT = {
    "A": lambda l: l * (l + 1) // 2,
    "B": lambda l: l * l,
    "C": lambda l: l * l,
    "D": lambda l: l * (l - 1),
    "E": lambda l: {6: 36, 7: 63}[l],
}

_MIN_RANK = {"A": 1, "B": 2, "C": 1, "D": 3, "E": 6}


def _cartan_and_norms(kind: str, l: int) -> tuple[list[list[int]], list[int]]:
    """Cartan matrix and squared root lengths, Bourbaki numbering."""
    mat = [[2 * (i == j) for j in range(l)] for i in range(l)]

    def edge(i: int, j: int, mij: int = -1, mji: int = -1) -> None:
        mat[i][j] = mij
        mat[j][i] = mji

    norms = [2] * l
    if kind == "A":
        for i in range(l - 1):
            edge(i, i + 1)
    elif kind == "B":
        for i in range(l - 2):
            edge(i, i + 1)
        if l >= 2:
            edge(l - 2, l - 1, -2, -1)  # last simple root is short
        norms[l - 1] = 1
    elif kind == "C":
        for i in range(l - 2):
            edge(i, i + 1)
        if l >= 2:
            edge(l - 2, l - 1, -1, -2)  # last simple root is long
        norms = [1] * (l - 1) + [2]
    elif kind == "D":
        for i in range(l - 3):
            edge(i, i + 1)
        edge(l - 3, l - 2)
        edge(l - 3, l - 1)
    else:  # E6 / E7: node 2 hangs off node 4 (1-based labels)
        spine = [0, 2, 3, 4, 5, 6][: l - 1]
        for a, b in zip(spine, spine[1:]):
            edge(a, b)
        edge(1, 3)
    return mat, norms


@dataclass(frozen=True)
class Weight:
    """A weight in fundamental-weight coordinates."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def to_json(self) -> list[int]:
        return list(self.coords)


class RootSystem:
    """An irreducible root system of classical type or E6/E7."""

    def __init__(self, kind: str, rank: int):
        if kind not in _MIN_RANK:
            raise ValueError(f"unknown kind {kind!r}")
        if rank < _MIN_RANK[kind] or (kind == "E" and rank not in (6, 7)):
            raise ValueError(f"rank {rank} out of range for kind {kind}")
        self.kind = kind
        self.rank = rank
        self.cartan, self.norms = _cartan_and_norms(kind, rank)
        self._coroot_cache: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.positive_roots = self._generate_positive_roots()
        expected = _COUNT[kind](rank)
        if len(self.positive_roots) != expected:
            raise AssertionError(
                f"{kind}{rank}: got {len(self.positive_roots)} positive "
                f"roots, expected {expected}"
            )

    @property
    def name(self) -> str:
        return f"{self.kind}{self.rank}"

    def __repr__(self) -> str:
        return f"RootSystem({self.name})"

    # -- roots ---------------------------------------------------------

    def _reflect_root(self, beta: tuple[int, ...], i: int) -> tuple[int, ...]:
        # <beta, alpha_i^vee> with beta in simple-root coordinates
        pairing = sum(b * self.cartan[j][i] for j, b in enumerate(beta))
        out = list(beta)
        out[i] -= pairing
        return tuple(out)

    def _generate_positive_roots(self) -> tuple[tuple[int, ...], ...]:
        l = self.rank
        simple = [tuple(int(i == j) for j in range(l)) for i in range(l)]
        seen = set(simple)
        frontier = list(simple)
        while frontier:
            beta = frontier.pop()
            for i in range(l):
                img = self._reflect_root(beta, i)
                if img not in seen:
                    seen.add(img)
                    frontier.append(img)
        positive = [r for r in seen if all(c >= 0 for c in r)]
        positive.sort(key=lambda r: (sum(r), r))
        return tuple(positive)

    def all_roots(self) -> list[tuple[int, ...]]:
        negatives = [tuple(-c for c in r) for r in self.positive_roots]
        return list(self.positive_roots) + negatives

    # -- pairings ------------------------------------------------------

    def _inner_weight_root(self, mu: Iterable[int], beta: tuple[int, ...]) -> Fraction:
        # (mu, beta) with mu in fundamental and beta in simple-root coords
        return sum(
            (Fraction(b * m * d, 2) for b, m, d in zip(beta, mu, self.norms)),
            Fraction(0),
        )

    def _root_norm(self, beta: tuple[int, ...]) -> Fraction:
        total = Fraction(0)
        for i, bi in enumerate(beta):
            if not bi:
                continue
            for j, bj in enumerate(beta):
                if bj:
                    total += Fraction(bi * bj * self.cartan[i][j] * self.norms[j], 2)
        return total

    def _coroot_vector(self, beta: tuple[int, ...]) -> tuple[int, ...]:
        """Integer vector v with <w, beta^vee> = sum w_j v_j for weights w."""
        cached = self._coroot_cache.get(beta)
        if cached is not None:
            return cached
        norm = self._root_norm(beta)
        vec = []
        for c, d in zip(beta, self.norms):
            entry = Fraction(c * d) / norm
            if entry.denominator != 1:  # pragma: no cover - coroots are integral
                raise AssertionError("coroot pairing must be integral")
            vec.append(int(entry))
        out = tuple(vec)
        self._coroot_cache[beta] = out
        return out

    def pair_coroot(self, weight: Weight, beta: tuple[int, ...]):
        """<weight, beta^vee> = 2(weight, beta)/(beta, beta)."""
        vec = self._coroot_vector(beta)
        return sum(w * v for w, v in zip(weight.coords, vec))

    # -- Weyl group action on weights -----------------------------------

    def reflect_weight(self, mu: tuple[int, ...], i: int) -> tuple[int, ...]:
        c = mu[i]
        return tuple(m - c * self.cartan[i][j] for j, m in enumerate(mu))

    def dominant_representative(self, mu: tuple[int, ...]) -> tuple[int, ...]:
        """The dominant weight in the Weyl orbit of mu."""
        current = tuple(mu)
        for _ in range(10 ** 6):
            i = next((j for j, c in enumerate(current) if c < 0), None)
            if i is None:
                return current
            current = self.reflect_weight(current, i)
        raise AssertionError("dominantization failed to terminate")

    @property
    def opposition(self) -> tuple[int, ...]:
        """Permutation iota with -w0(omega_i) = omega_iota(i), 0-based."""
        return self._opposition()

    @lru_cache(maxsize=None)
    def _opposition(self) -> tuple[int, ...]:
        perm = []
        for i in range(self.rank):
            mu = tuple(-int(i == j) for j in range(self.rank))
            image = self.dominant_representative(mu)
            hits = [j for j, c in enumerate(image) if c == 1]
            if sum(image) != 1 or len(hits) != 1:
                raise AssertionError("opposition involution is not a diagram map")
            perm.append(hits[0])
        return tuple(perm)

    def __hash__(self) -> int:  # needed for the lru_cache on methods
        return hash((self.kind, self.rank))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RootSystem)
            and self.kind == other.kind
            and self.rank == other.rank
        )


@lru_cache(maxsize=None)
def root_system(kind: str, rank: int) -> RootSystem:
    """Shared, cached system instances (they are immutable after init)."""
    return RootSystem(kind, rank)


def fundamental_weight(rs: RootSystem, index: int) -> Weight:
    """The fundamental weight with 1-based index."""
    if not 1 <= index <= rs.rank:
        raise ValueError(f"index {index} out of range for {rs.name}")
    return Weight(tuple(int(i == index - 1) for i in range(rs.rank)))


def is_dominant(weight: Weight) -> bool:
    return all(c >= 0 for c in weight.coords)


def is_minuscule(rs: RootSystem, weight: Weight) -> bool:
    """Definitional test: <lambda, alpha^vee> in {-1,0,1} for all roots."""
    if not is_dominant(weight) or weight.is_zero:
        return False
    for beta in rs.all_roots():
        if rs.pair_coroot(weight, beta) not in (-1, 0, 1):
            return False
    return True


def minuscule_weights(rs: RootSystem) -> list[Weight]:
    """All minuscule weights, found by testing the fundamental weights.

    A nonzero minuscule weight is necessarily fundamental, so scanning
    the fundamental weights against the definitional test is exhaustive.
    """
    return [
        w
        for i in range(1, rs.rank + 1)
        if is_minuscule(rs, w := fundamental_weight(rs, i))
    ]


def rep_dimension(rs: RootSystem, weight: Weight) -> int:
    """Weyl dimension formula, evaluated exactly."""
    if not is_dominant(weight):
        raise ValueError("rep_dimension needs a dominant weight")
    shifted = tuple(c + 1 for c in weight.coords)
    num = 1
    den = 1
    for beta in rs.positive_roots:
        vec = rs._coroot_vector(beta)
        num *= sum(w * v for w, v in zip(shifted, vec))
        den *= sum(vec)
    if num % den:
        raise AssertionError("Weyl dimension did not come out integral")
    return num // den


def dual_weight(rs: RootSystem, weight: Weight) -> Weight:
    """The highest weight -w0(lambda) of the dual representation."""
    negated = tuple(-c for c in weight.coords)
    return Weight(rs.dominant_representative(negated))


def autoduality(rs: RootSystem, weight: Weight) -> str:
    """orthogonal / symplectic / non_self_dual for the minuscule weight.

    Self-duality is decided by comparing with -w0(lambda); for a
    self-dual representation the Frobenius-Schur indicator is read off
    the parity of <lambda, 2 rho^vee>, the sum of the pairings with all
    positive coroots (even = orthogonal, odd = symplectic).
    """
    if not is_minuscule(rs, weight):
        raise ValueError("autoduality is defined here for minuscule weights")
    if dual_weight(rs, weight) != weight:
        return NON_SELF_DUAL
    total = sum(rs.pair_coroot(weight, beta) for beta in rs.positive_roots)
    return ORTHOGONAL if total % 2 == 0 else SYMPLECTIC


def weight_root_coordinates(rs: RootSystem, weight: Weight) -> list[Fraction]:
    """Coordinates c with lambda = sum c_i alpha_i, solved exactly."""
    l = rs.rank
    # Solve c * M = lambda for the row vector c (M = Cartan matrix).
    aug = [
        [Fraction(rs.cartan[i][j]) for i in range(l)] + [Fraction(weight.coords[j])]
        for j in range(l)
    ]
    for col in range(l):
        pivot = next(r for r in range(col, l) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(l):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][l] for i in range(l)]


def weight_length(rs: RootSystem, weight: Weight) -> Fraction:
    """min over simple roots of c_alpha + c_alpha', alpha' = -w0(alpha)."""
    if not is_dominant(weight):
        raise ValueError("weight_length needs a dominant weight")
    if weight.is_zero:
        return Fraction(0)
    coords = weight_root_coordinates(rs, weight)
    opp = rs.opposition
    return min(coords[i] + coords[opp[i]] for i in range(rs.rank))


def minuscule_table_expected(rs: RootSystem) -> list[dict]:
    """Closed-form minuscule data for one kind: index, dimension, duality.

    These are the classical formulas (binomials for A, 2^l for the spin
    representations, 2l for the standard ones, with the mod-4 sign
    patterns); the scan functions above are checked against them.
    """
    l = rs.rank
    rows: list[dict] = []

    def sign_mod4(plus: tuple[int, ...]) -> str:
        return ORTHOGONAL if l % 4 in plus else SYMPLECTIC

    if rs.kind == "A":
        for j in range(1, l + 1):
            duality = NON_SELF_DUAL
            if l == 2 * j - 1:
                duality = ORTHOGONAL if j % 2 == 0 else SYMPLECTIC
            rows.append(
                {"index": j, "dim": math.comb(l + 1, j), "duality": duality}
            )
    elif rs.kind == "B":
        rows.append({"index": l, "dim": 2 ** l, "duality": sign_mod4((0, 3))})
    elif rs.kind == "C":
        rows.append({"index": 1, "dim": 2 * l, "duality": SYMPLECTIC})
    elif rs.kind == "D":
        rows.append({"index": 1, "dim": 2 * l, "duality": ORTHOGONAL})
        half = NON_SELF_DUAL if l % 2 else sign_mod4((0,))
        rows.append({"index": l - 1, "dim": 2 ** (l - 1), "duality": half})
        rows.append({"index": l, "dim": 2 ** (l - 1), "duality": half})
    elif rs.rank == 6:
        rows.append({"index": 1, "dim": 27, "duality": NON_SELF_DUAL})
        rows.append({"index": 6, "dim": 27, "duality": NON_SELF_DUAL})
    else:
        rows.append({"index": 7, "dim": 56, "duality": SYMPLECTIC})
    return rows


def verify_minuscule_table(rs: RootSystem) -> dict:
    """Check the computed minuscule data of rs against the closed forms.

    Includes the definitional test on every returned weight and, for the
    classical kinds, the statement that minuscule weights have length 1.
    """
    expected = {row["index"]: row for row in minuscule_table_expected(rs)}
    computed = minuscule_weights(rs)
    got_indices = sorted(
        next(i + 1 for i, c in enumerate(w.coords) if c == 1) for w in computed
    )
    ok = got_indices == sorted(expected)
    details = []
    for w in computed:
        idx = next(i + 1 for i, c in enumerate(w.coords) if c == 1)
        row = expected.get(idx)
        dim = rep_dimension(rs, w)
        dual = autoduality(rs, w)
        definitional = is_minuscule(rs, w)
        length_ok = (
            weight_length(rs, w) == 1 if rs.kind in _CLASSICAL else True
        )
        row_ok = (
            row is not None
            and dim == row["dim"]
            and dual == row["duality"]
            and definitional
            and length_ok
        )
        ok = ok and row_ok
        details.append(
            {
                "index": idx,
                "dim": dim,
                "duality": dual,
                "definitional": definitional,
                "length_one": length_ok,
                "ok": row_ok,
            }
        )
    return {"system": rs.name, "ok": ok, "weights": details}


# ---------------------------------------------------------------------------
# Admissible simple factors for an irreducible summand of given dimension
# ---------------------------------------------------------------------------

_CLASSICAL = ("A", "B", "C", "D")


@lru_cache(maxsize=None)
def _minuscule_data(kind: str, rank: int) -> tuple:
    """(coords, dimension, duality) for each minuscule weight, cached."""
    rs = root_system(kind, rank)
    return tuple(
        (w.coords, rep_dimension(rs, w), autoduality(rs, w))
        for w in minuscule_weights(rs)
    )


def _classical_systems(max_rank: int):
    for kind in _CLASSICAL:
        for l in range(_MIN_RANK[kind], max_rank + 1):
            yield root_system(kind, l)


def _is_middle_power_of_two(rs: RootSystem, weight: Weight) -> Optional[int]:
    """k when (rs, weight) is A_{2^k-1} with the middle fundamental weight."""
    if rs.kind != "A":
        return None
    size = rs.rank + 1
    k = size.bit_length() - 1
    if size != 1 << k:
        return None
    middle = fundamental_weight(rs, size // 2)
    return k if weight == middle else None


def admissible_factors(
    dim: int, duality: str, max_rank: int = 16
) -> list[tuple[RootSystem, Weight]]:
    """Classical minuscule pairs of the given dimension and autoduality.

    On top of the raw scan this enforces the constraints satisfied by a
    nontrivial simple factor of an irreducible summand: self-dual forces
    even dimension; a symplectic factor of dimension 2 mod 4 must be the
    standard representation of C_l with l odd; an orthogonal factor of
    dimension 2 mod 4 must be the standard representation of D_l with l
    odd or the middle exterior power for A_{2^k-1} with k >= 3.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    hits: list[tuple[RootSystem, Weight]] = []
    for rs in _classical_systems(max_rank):
        for coords, rep_dim, rep_duality in _minuscule_data(rs.kind, rs.rank):
            if rep_dim != dim or rep_duality != duality:
                continue
            hits.append((rs, Weight(coords)))
    if duality in (ORTHOGONAL, SYMPLECTIC):
        if dim % 2 == 1:
            return []
        if dim % 4 == 2:
            if duality == SYMPLECTIC:
                hits = [
                    (rs, w)
                    for rs, w in hits
                    if rs.kind == "C"
                    and rs.rank % 2 == 1
                    and w == fundamental_weight(rs, 1)
                ]
            else:
                kept = []
                for rs, w in hits:
                    if (
                        rs.kind == "D"
                        and rs.rank % 2 == 1
                        and w == fundamental_weight(rs, 1)
                    ):
                        kept.append((rs, w))
                        continue
                    k = _is_middle_power_of_two(rs, w)
                    if k is not None and k >= 3:
                        kept.append((rs, w))
                hits = kept
    hits.sort(key=lambda p: (p[0].kind, p[0].rank, p[1].coords))
    return hits
