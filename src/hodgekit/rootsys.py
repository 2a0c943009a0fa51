"""Root systems, minuscule weights, and the admissible-factor filter.

A root system is built in exact integer arithmetic from its Cartan
matrix.  Its positive roots are generated on first read, by an
upward-only reflection closure, each root carrying the squared length of
the simple root it descends from, its coroot,
s_i(beta)^vee = s_i(beta^vee), and the heights of both, each updated by
one addition per step.  A Dynkin node has at most three neighbours, so
every Weyl-group kernel is sparse: <beta, alpha_i^vee> is read off the
root's weight coordinates, and s_i changes a weight only at i and its
neighbours.  The closure also carries the indices of a root's negative
pairings, the only reflections it takes, and updates them at i and its
neighbours, so no step scans all l pairings.  It records a (height,
root, coroot height) row per root, and one sort of the rows gives the
order of the roots and the coroot heights in that order.  On top of that
come representation dimensions by the Weyl formula, a product over the
positive coroots whose pairing with lambda is nonzero, self-duality by
dominantizing -lambda, and the orthogonal/symplectic sign of a
self-dual representation by the parity of <lambda, 2 rho^vee>, with
2 rho^vee summed once per system; pairings read only the weight's
nonzero coordinates, and those of omega_i are coroot column i, which
the minuscule scan reads whole.  One dominantization of -lambda gives
both the dual and the length, and the table check reads it once per
weight for the two.

The length of a dominant weight needs no linear solve either.  Write
lambda = sum c_alpha alpha; the alpha-coordinate of lambda - w0(lambda)
is c_alpha + c_alpha', alpha' = -w0(alpha).  Dominantizing -lambda to
-w0(lambda) adds -mu_i alpha_i at each reflection s_i with mu_i < 0, so
those steps sum to lambda - w0(lambda) in integer root coordinates, and
every length is an integer.

The minuscule table itself is given in closed form in ``numth``, after
the plates of Bourbaki, *Lie Groups and Lie Algebras*, ch. VI-VIII, and
so is its one inversion, ``_rows_of_dimension``, read by the classifier
through ``central_binomial_solve``.  ``admissible_factors`` filters it,
so it scans no ranks and builds a system only for a hit;
``verify_minuscule_table`` checks the table against the Weyl-formula scan.

Conventions: cartan[i][j] = <alpha_i, alpha_j^vee>, simple roots indexed
from 0 internally, fundamental weights 1-based in the public API to
match the usual labelling of Dynkin diagrams (Bourbaki numbering).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import compress, repeat
from operator import add, mul
from typing import NamedTuple

from .numth import _COUNT, _DUALITIES, _MIN_RANK, NON_SELF_DUAL, ORTHOGONAL, SYMPLECTIC
from .numth import _kept_in_twice_odd_dim, _minuscule_rows, _rows_of_dimension
from .numth import _require_int, _require_ints

# Largest rank a RootSystem is built for.  Root generation grows like l^3
# and sets the cost of a single-system query: `weights dim`, `autodual` or
# `length` on D112 takes about 0.2 s through the CLI on a 2-vCPU Xeon VM
# (39 MB peak).  `weights verify-table2 --max-rank 112`, every system up to
# the cap, takes 24-25 s and 48 MB there, inside the 60 s budget of the
# other caps; the root closure and the A_l dominantizations set that time.
# The refusal above the cap is pinned by the CLI golden, so the cap stays.
MAX_RANK = 112


def _cartan_and_norms(kind: str, l: int):
    """Cartan matrix, squared root lengths and Dynkin links, Bourbaki
    numbering.  The links of node i are its neighbours j, each with
    <alpha_i, alpha_j^vee>, by increasing j."""
    mat = [[2 * (i == j) for j in range(l)] for i in range(l)]
    links = [[] for _ in range(l)]

    def edge(i: int, j: int, mij: int = -1, mji: int = -1) -> None:
        mat[i][j] = mij
        mat[j][i] = mji
        links[i].append((j, mij))
        links[j].append((i, mji))

    norms = [2] * l
    if kind == "A":
        for i in range(l - 1):
            edge(i, i + 1)
    elif kind == "B":  # RootSystem refuses B1 (_MIN_RANK); C1 exists
        for i in range(l - 2):
            edge(i, i + 1)
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
    return mat, norms, tuple(tuple(sorted(nodes)) for nodes in links)


class _WeightFields(NamedTuple):
    coords: tuple[int, ...]


class Weight(_WeightFields):
    """A weight in fundamental-weight coordinates.  Every coordinate must
    be an int (a bool is refused too); nothing is coerced."""

    __slots__ = ()

    def __new__(cls, coords):
        coords = _require_ints(tuple(coords), "weight coordinate")
        return tuple.__new__(cls, (coords,))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    @property
    def support(self) -> tuple[tuple[int, int], ...]:
        """(index, coordinate) of each nonzero coordinate, 0-based."""
        return tuple((j, c) for j, c in enumerate(self.coords) if c)


class RootSystem:
    """An irreducible root system of classical type or E6/E7.

    Construction checks the kind and the rank and sets up the Cartan
    matrix; the roots and coroots are generated on first read, and their
    number is then checked against |Phi^+|.
    """

    def __init__(self, kind: str, rank: int):
        if kind not in _MIN_RANK:
            raise ValueError(f"unknown kind {kind!r}")
        _require_int(rank, "rank")
        if rank < _MIN_RANK[kind] or (kind == "E" and rank not in (6, 7)):
            raise ValueError(f"rank {rank} out of range for kind {kind}")
        _check_rank_cap(rank)
        self.kind = kind
        self.rank = rank
        # A Dynkin node has at most three neighbours; s_i moves only the
        # i-th weight coordinate and those of its neighbours.
        self.cartan, self.norms, self._links = _cartan_and_norms(kind, rank)

    @property
    def name(self) -> str:
        return f"{self.kind}{self.rank}"

    def __repr__(self) -> str:
        return f"RootSystem({self.name})"

    # -- roots ---------------------------------------------------------

    @cached_property
    def positive_roots(self) -> tuple[tuple[int, ...], ...]:
        """The positive roots in simple-root coordinates, by height."""
        return self._closure[1]

    @cached_property
    def _coroots(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Each positive root beta with its coroot beta^vee, both in simple
        (co)root coordinates, so that <w, beta^vee> = sum_j w_j v_j."""
        return self._closure[0]

    @cached_property
    def _closure(self) -> tuple[dict, tuple, tuple]:
        """The dict ``_coroots``, the positive roots by height (then by
        coordinates), and the heights of their coroots in that order.

        A root is carried with its squared length, its coroot, the heights
        of both, its weight coordinates <beta, alpha_i^vee>, which s_i
        changes only at i and its neighbours, and the indices where they
        are negative.  The closure reflects only upward: s_i(beta) =
        beta - <beta, alpha_i^vee> alpha_i is taken when the pairing is
        negative, and is then a higher positive root.  That reaches every
        positive root: a positive root beta that is not simple has some i
        with <beta, alpha_i^vee> > 0, and then gamma = s_i(beta) is a
        lower positive root with <gamma, alpha_i^vee> < 0 and
        s_i(gamma) = beta, so by induction on the height every positive
        root comes from a simple one by upward steps.  Each root gets a
        row (height, beta, height of beta^vee), and one sort of the rows,
        in their natural order, puts the roots and the coroot heights in
        order; no key is computed and no height summed.

        Reflections preserve length, so a root has the length of the
        simple root it descends from, and s_i(beta)^vee = s_i(beta^vee)
        = beta^vee - <alpha_i, beta^vee> alpha_i^vee, where
        <alpha_i, beta^vee> = <beta, alpha_i^vee> |alpha_i|^2 / |beta|^2
        must be an integer.  The step adds -<beta, alpha_i^vee> to the
        height of beta and -<alpha_i, beta^vee> to that of beta^vee.
        Every read of the roots passes through here, so the count check
        below runs on every system whose roots are used.
        """
        l, links, norms = self.rank, self._links, self.norms
        coroots = {}
        rows = []
        frontier = []
        for i in range(l):
            alpha = tuple(int(i == j) for j in range(l))
            coroots[alpha] = alpha
            rows.append((1, alpha, 1))
            # alpha_i pairs negatively with its neighbours alone
            negative = [j for j, _ in links[i]]
            frontier.append((alpha, alpha, 1, 1, norms[i], self.cartan[i], negative))
        while frontier:
            beta, vee, height, vee_height, size, pairings, negative = frontier.pop()
            for i in negative:
                p = pairings[i]
                img = list(beta)
                img[i] -= p
                img = tuple(img)
                if img in coroots:
                    continue
                q, r = divmod(p * norms[i], size)
                if r:  # pragma: no cover
                    raise AssertionError("coroot pairing must be integral")
                # while every step has q = p, a root is its own coroot
                # and shares its tuple
                if vee is beta and q == p:
                    img_vee = img
                else:
                    img_vee = list(vee)
                    img_vee[i] -= q
                    img_vee = tuple(img_vee)
                coroots[img] = img_vee
                up, vee_up = height - p, vee_height - q
                rows.append((up, img, vee_up))
                # s_i turns the pairing at i into -p > 0 and lowers it by
                # p * a > 0 at each neighbour j (a < 0), so only i leaves
                # the negative indices and only a neighbour joins them
                mu = list(pairings)
                mu[i] = -p
                below = negative.copy()
                below.remove(i)
                for j, a in links[i]:
                    mu[j] = m = mu[j] - p * a
                    if m < 0 <= pairings[j]:
                        below.append(j)
                frontier.append((img, img_vee, up, vee_up, size, mu, below))
        expected = _COUNT[self.kind](l)
        if len(coroots) != expected:
            raise AssertionError(
                f"{self.name}: got {len(coroots)} positive roots, expected {expected}"
            )
        rows.sort()
        _, roots, heights = zip(*rows)
        return coroots, roots, heights

    # -- pairings ------------------------------------------------------

    def _pairings(self, weight: Weight):
        """<weight, beta^vee> for the positive roots beta, in order."""
        cols = self._coroot_columns
        parts = [map(mul, cols[j], repeat(c)) for j, c in weight.support]
        if not parts:
            return repeat(0, len(self.positive_roots))
        return parts[0] if len(parts) == 1 else map(sum, zip(*parts))

    @cached_property
    def _coroot_columns(self) -> tuple[tuple[int, ...], ...]:
        """Column j lists the j-th coordinate of every positive coroot."""
        return tuple(zip(*map(self._coroots.__getitem__, self.positive_roots)))

    @cached_property
    def _coroot_heights(self) -> tuple[int, ...]:
        """<rho, beta^vee>, the height of beta^vee, for the positive roots."""
        return self._closure[2]

    @cached_property
    def _two_rho_vee(self) -> tuple[int, ...]:
        """2 rho^vee, the sum of the positive coroots."""
        return tuple(map(sum, self._coroot_columns))

    # -- Weyl group action on weights -----------------------------------

    def dominant_representative(
        self, mu: tuple[int, ...]
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The dominant weight in the Weyl orbit of mu, and its excess over
        mu in simple-root coordinates (each s_i with mu_i < 0 adds
        -mu_i alpha_i, so the excess is a nonnegative integer vector).

        Such a step removes alpha_i from {beta > 0 : <mu, beta^vee> < 0}
        and permutes the rest, so the number of steps is the size of that
        set, at most the number of positive roots; more is an error.
        """
        current = list(mu)
        shift = [0] * self.rank
        todo = [i for i, c in enumerate(current) if c < 0]
        budget = len(self.positive_roots)
        links = self._links
        while todo:
            i = todo.pop()
            c = current[i]
            if c >= 0:
                continue
            if not budget:
                raise AssertionError("dominantization took too many steps")
            budget -= 1
            shift[i] -= c
            current[i] = -c
            for j, a in links[i]:
                current[j] -= c * a
                if current[j] < 0:
                    todo.append(j)
        return tuple(current), tuple(shift)


def _check_rank_cap(rank: int) -> None:
    if rank > MAX_RANK:
        raise ValueError(
            f"rank {rank} is over the cap MAX_RANK = {MAX_RANK} for root systems"
        )


@lru_cache(maxsize=None, typed=True)
def root_system(kind: str, rank: int) -> RootSystem:
    """Shared, cached system instances (they are immutable after init).
    Typed, so a 3.0 or a True is not answered from the cache of 3 or 1."""
    return RootSystem(kind, rank)


def fundamental_weight(rs: RootSystem, index: int) -> Weight:
    """The fundamental weight with 1-based index."""
    if not 1 <= _require_int(index, "index") <= rs.rank:
        raise ValueError(f"index {index} out of range for {rs.name}")
    return Weight(tuple(int(i == index - 1) for i in range(rs.rank)))


def _check_length(rs: RootSystem, weight: Weight) -> None:
    """Refuse a weight whose coordinates do not number the rank."""
    if len(weight.coords) != rs.rank:
        raise ValueError(f"expected {rs.rank} coordinates, got {len(weight.coords)}")


def is_dominant(weight: Weight) -> bool:
    return all(c >= 0 for c in weight.coords)


def is_minuscule(rs: RootSystem, weight: Weight) -> bool:
    """Definitional test: <lambda, alpha^vee> in {-1,0,1} for all roots.

    A dominant weight pairs with every positive coroot to >= 0 and with
    its negative to <= 0, so checking <= 1 on the positive roots suffices.
    """
    _check_length(rs, weight)
    if not is_dominant(weight) or weight.is_zero:
        return False
    return max(rs._pairings(weight)) <= 1


def minuscule_weights(rs: RootSystem) -> list[Weight]:
    """All minuscule weights, found by testing the fundamental weights.

    A nonzero minuscule weight is necessarily fundamental, so scanning
    the fundamental weights against the definitional test is exhaustive.
    omega_i is dominant and nonzero, and its pairings with the positive
    coroots are their i-th coordinates, coroot column i, so the test is
    ``is_minuscule``'s bound on that column.
    """
    return [
        fundamental_weight(rs, i)
        for i, column in enumerate(rs._coroot_columns, 1)
        if max(column) <= 1
    ]


def rep_dimension(rs: RootSystem, weight: Weight) -> int:
    """Weyl dimension formula, evaluated exactly."""
    _check_length(rs, weight)
    if not is_dominant(weight):
        raise ValueError(f"rep_dimension needs a dominant weight, got {weight.coords}")
    # <lambda + rho, beta^vee> = <lambda, beta^vee> + height of beta^vee
    # a zero pairing gives the factor h / h = 1, so only the nonzero ones
    # enter either product
    heights, pairs = rs._coroot_heights, tuple(rs._pairings(weight))
    num = math.prod(compress(map(add, heights, pairs), pairs))
    den = math.prod(compress(heights, pairs))
    if num % den:
        raise AssertionError("Weyl dimension did not come out integral")
    return num // den


def _negated_dominant(rs: RootSystem, weight: Weight):
    """-w0(lambda) and lambda - w0(lambda) in simple-root coordinates:
    ``dominant_representative`` of -lambda, the one dominantization that
    the dual, the autoduality and the length all read."""
    return rs.dominant_representative(tuple(-c for c in weight.coords))


def _self_dual_sign(rs: RootSystem, weight: Weight, dual: tuple[int, ...]) -> str:
    """The autoduality of a minuscule weight whose dual is ``dual``."""
    if dual != weight.coords:
        return NON_SELF_DUAL
    total = sum(c * rs._two_rho_vee[j] for j, c in weight.support)
    return ORTHOGONAL if total % 2 == 0 else SYMPLECTIC


def autoduality(rs: RootSystem, weight: Weight) -> str:
    """orthogonal / symplectic / non_self_dual for the minuscule weight.

    Self-duality is decided by comparing with -w0(lambda); for a
    self-dual representation the Frobenius-Schur indicator is read off
    the parity of <lambda, 2 rho^vee>, the sum of the pairings with all
    positive coroots (even = orthogonal, odd = symplectic).
    """
    if not is_minuscule(rs, weight):
        raise ValueError(
            f"autoduality is defined here for minuscule weights, got {weight.coords}"
        )
    return _self_dual_sign(rs, weight, _negated_dominant(rs, weight)[0])


def weight_length(rs: RootSystem, weight: Weight) -> int:
    """The length of a dominant weight: the min over simple roots of
    c_alpha + c_alpha', alpha' = -w0(alpha).

    With lambda = sum c_alpha alpha, c_alpha + c_alpha' is the
    alpha-coordinate of lambda - w0(lambda), which dominantizing -lambda
    to -w0(lambda) accumulates in integers; that vector lies in the root
    lattice, so the length is an integer.
    """
    _check_length(rs, weight)
    if not is_dominant(weight):
        raise ValueError(f"weight_length needs a dominant weight, got {weight.coords}")
    return min(_negated_dominant(rs, weight)[1])


def minuscule_table_expected(rs: RootSystem) -> list[dict]:
    """Closed-form minuscule data for one kind: index, dimension, duality,
    from ``numth._minuscule_rows``; ``verify_minuscule_table`` checks the
    scan functions above against it."""
    return [
        {"index": index, "dim": dim, "duality": duality}
        for index, dim, duality in _minuscule_rows(rs.kind, rs.rank)
    ]


def verify_minuscule_table(rs: RootSystem) -> dict:
    """Check the computed minuscule data of rs against the closed forms.

    The weights are those the definitional test picks out of the
    fundamental weights (``minuscule_weights``); for the classical kinds
    it also checks that minuscule weights have length 1.
    """
    expected = {row["index"]: row for row in minuscule_table_expected(rs)}
    computed = [(w.coords.index(1) + 1, w) for w in minuscule_weights(rs)]
    ok = sorted(idx for idx, _ in computed) == sorted(expected)
    details = []
    for idx, w in computed:
        row = expected.get(idx)
        dim = rep_dimension(rs, w)
        # one dominantization of -w for both the dual and the length
        opposite, shift = _negated_dominant(rs, w)
        dual = _self_dual_sign(rs, w, opposite)
        length_ok = min(shift) == 1 if rs.kind != "E" else True
        row_ok = (
            row is not None
            and dim == row["dim"]
            and dual == row["duality"]
            and length_ok
        )
        ok = ok and row_ok
        details.append(
            {
                "index": idx,
                "dim": dim,
                "duality": dual,
                # minuscule_weights kept only weights passing is_minuscule
                "definitional": True,
                "length_one": length_ok,
                "ok": row_ok,
            }
        )
    return {"system": rs.name, "ok": ok, "weights": details}


# ---------------------------------------------------------------------------
# Admissible simple factors for an irreducible summand of given dimension
# ---------------------------------------------------------------------------

def admissible_factors(
    dim: int, duality: str, max_rank: int = 16
) -> list[tuple[RootSystem, Weight]]:
    """Classical minuscule pairs of the given dimension and autoduality.

    The pairs come from inverting the closed-form minuscule table at dim
    (``_rows_of_dimension``), cut at rank max_rank (at most MAX_RANK); a
    root system is built only for a hit, and its roots only when read.
    On top of the table this enforces the constraints satisfied by a
    nontrivial simple factor of an irreducible summand: self-dual forces
    even dimension; a symplectic factor of dimension 2 mod 4 must be the
    standard representation of C_l with l odd; an orthogonal factor of
    dimension 2 mod 4 must be the standard representation of D_l with l
    odd or the middle exterior power for A_{2^k-1} with k >= 3.  Hits are
    sorted by kind, rank and weight.
    """
    if _require_int(dim, "dim") < 1:
        raise ValueError("dim must be positive")
    if duality not in _DUALITIES:
        raise ValueError(
            f"duality must be one of {', '.join(_DUALITIES)}, got {duality!r}"
        )
    _check_rank_cap(_require_int(max_rank, "max_rank"))
    self_dual = duality != NON_SELF_DUAL
    if self_dual and dim % 2 == 1:
        return []
    hits: list[tuple[RootSystem, Weight]] = []
    for kind, l, index in _rows_of_dimension(dim, duality, max_rank):
        if self_dual and dim % 4 == 2:
            if not _kept_in_twice_odd_dim(kind, l, index, duality):
                continue
        rs = root_system(kind, l)
        hits.append((rs, fundamental_weight(rs, index)))
    hits.sort(key=lambda p: (p[0].kind, p[0].rank, p[1].coords))
    return hits
