"""Number-theoretic facts the classification arguments lean on.

Everything here is exact: 2-adic valuations by the floor-sum formula,
central binomial residues by carry counting (``int.bit_count``), prime
counts by sieve.  One odd-only byte sieve (``_odd_flags``), kept by the
module and grown on demand, serves every prime read: the prime-count
gaps count one contiguous range of its flags in C, the composite check
reads the primes of one dyadic interval at a time in one comprehension,
each with the single Legendre term its valuation needs, so no list of
all primes is built, and ``_central_binomial`` reads the flags up to 2h.
Each reader bounds its own range, since the sieve may reach past it.  It
also owns the closed-form minuscule table and its one inversion,
``_rows_of_dimension``, which ``rootsys``, ``central_binomial_solve`` and
the classifier all read.

``is_prime`` is the one primality test of the package: trial division
by the 13 primes 2, 3, ..., 41, then Miller-Rabin to those 13 bases.  A
witness proves n composite at any size.  No composite below
3,317,044,064,679,887,385,961,981 is a strong pseudoprime to all of them
(Sorenson & Webster, "Strong pseudoprimes to twelve prime bases",
Math. Comp. 86 (2017)), so an n that passes is prime below that bound;
at or above it, such an n raises ValueError instead of guessing.

The package's one integer rule lives here too: a number is an integer
exactly when its type is ``int``, so a ``bool``, a float and an ``int``
subclass are all refused, never coerced.  ``_require_int`` checks one
number, ``_require_ints`` a whole row, with the loop inside it, and
``_require_int_pairs`` a list of pairs, building their tuple as it checks;
each refuses with ``<where> must be an integer, got <value!r>``.  Every
module checks its numbers through these, and the command line reads its
numbers with ``cli._ints`` before they get here.
"""

from __future__ import annotations

import bisect
import itertools
import math
from functools import lru_cache
from typing import Optional

# Time and memory double per step in k: `numth verify --k-max 24` takes
# about 0.55 s and 83 MB on a 2-vCPU Xeon VM, and k = 27 about 4.1-4.5 s
# and 505 MB.  The one sieve of 2^k_max holds 2^(k_max-1) bytes (64 MB at
# k = 27); the rest is the witness lists the answer prints (7.6 million
# primes at k = 27, as Python ints) and their JSON text, so it is the
# output, not the sieve, that sets the cap.
VERIFY_MAX_K = 27


def _is_int(value) -> bool:
    """The one integer rule: the type is ``int`` itself, which refuses a
    ``bool`` and every other ``int`` subclass in one identity test."""
    return type(value) is int


def _require_int(value, where: str) -> int:
    """``value``, if ``_is_int`` holds for it; else a ValueError naming ``where``."""
    if type(value) is not int:
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return value


def _require_ints(values, where: str):
    """``_require_int`` on every entry of ``values``, returned as given.  The
    loop is inside, so a matrix row costs one call, not one per entry."""
    for value in values:
        if type(value) is not int:
            raise ValueError(f"{where} must be an integer, got {value!r}")
    return values


def _require_int_pairs(pairs, where: str) -> tuple[tuple[int, int], ...]:
    """The pairs ``(a, b)`` of ``pairs`` as a tuple, built and checked in one
    loop: ``a`` then ``b`` of each pair under ``_require_int``'s rule."""
    out = []
    for a, b in pairs:
        if type(a) is not int or type(b) is not int:
            _require_ints((a, b), where)
        out.append((a, b))
    return tuple(out)


def factorial_two_adic(n: int) -> int:
    """v_2(n!) as the sum of floor(n / 2^i) over i >= 1."""
    if _require_int(n, "n") < 0:
        raise ValueError("n must be nonnegative")
    total = 0
    power = 2
    while power <= n:
        total += n // power
        power *= 2
    return total


def central_binomial_two_adic(z: int) -> int:
    """v_2(C(2z, z)); equals the number of ones in binary z (Kummer)."""
    if _require_int(z, "z") < 0:
        raise ValueError("z must be nonnegative")
    # Carries when adding z + z in base 2 happen at every set bit.
    return z.bit_count()


def central_binomial_mod4(z: int) -> int:
    """C(2z, z) mod 4 via the carry count; the value is always 0 or 2.

    The residue is 2 exactly when v_2(C(2z,z)) = 1, i.e. when z is a
    power of two; otherwise the valuation is at least 2.
    """
    if _require_int(z, "z") < 1:
        raise ValueError("z must be positive")
    return 2 if central_binomial_two_adic(z) == 1 else 0


@lru_cache(maxsize=None)
def _central_binomial(h: int) -> int:
    """C(2h, h) for h >= 1, as a balanced product tree of its prime powers.
    Python 3.11's ``math.comb(2^20, 2^19)`` divides big integers and takes
    about 12 s on a 2-vCPU Xeon VM; this takes about 0.3 s.  Cached: the
    inversion reads one value per bit length of its queries."""
    # 2, then the odd primes 2i + 1 < 2h, i < h
    primes = itertools.compress(range(1, 2 * h, 2), _odd_flags(2 * h)[:h])
    powers = [
        p ** v
        for p in itertools.chain((2,), primes)
        if (v := prime_valuation_central_binomial(p, h))
    ]
    while len(powers) > 1:
        powers = [math.prod(powers[i : i + 2]) for i in range(0, len(powers), 2)]
    return powers[0] if powers else 1


def central_binomial_solve(target: int, k_max: int = 20) -> Optional[int]:
    """Least k with 3 <= k <= k_max and C(2^k, 2^(k-1)) == target: the
    orthogonal middle wedges of A_{2^k-1} that ``_rows_of_dimension`` finds
    at target and ``_kept_in_twice_odd_dim`` keeps."""
    _require_int(target, "target")
    if _require_int(k_max, "k_max") < 3:
        raise ValueError("k_max must be at least 3")
    for kind, l, index in _rows_of_dimension(target, ORTHOGONAL, target):
        if kind == "A" and _kept_in_twice_odd_dim(kind, l, index, ORTHOGONAL):
            return l.bit_length() if l.bit_length() <= k_max else None
    return None


# The closed-form minuscule table (Bourbaki, *Lie Groups and Lie Algebras*,
# ch. VI-VIII, plates) and its one inversion, ``_rows_of_dimension``.
ORTHOGONAL = "orthogonal"
SYMPLECTIC = "symplectic"
NON_SELF_DUAL = "non_self_dual"
_DUALITIES = (ORTHOGONAL, SYMPLECTIC, NON_SELF_DUAL)

_MIN_RANK = {"A": 1, "B": 2, "C": 1, "D": 3, "E": 6}

# |Phi^+|, the number of positive roots of kind_l
_COUNT = {
    "A": lambda l: l * (l + 1) // 2,
    "B": lambda l: l * l,
    "C": lambda l: l * l,
    "D": lambda l: l * (l - 1),
    "E": lambda l: {6: 36, 7: 63}[l],
}


def _duality(kind: str, l: int, index: int) -> str:
    """Duality of the minuscule weight omega_index of kind_l: the one place
    the sign rules live (a wedge of A_l is self-dual only in the middle)."""
    if kind == "A":
        if l != 2 * index - 1:
            return NON_SELF_DUAL
        return ORTHOGONAL if index % 2 == 0 else SYMPLECTIC
    if kind == "B":
        return ORTHOGONAL if l % 4 in (0, 3) else SYMPLECTIC
    if kind == "C":
        return SYMPLECTIC
    if kind == "E":
        return SYMPLECTIC if l == 7 else NON_SELF_DUAL
    if index == 1:
        return ORTHOGONAL
    if l % 2:
        return NON_SELF_DUAL
    return ORTHOGONAL if l % 4 == 0 else SYMPLECTIC


def _minuscule_rows(kind: str, l: int) -> tuple[tuple[int, int, str], ...]:
    """(index, dimension, duality) of each minuscule weight of kind_l: C(l+1, j)
    for the j-th wedge of A_l, 2^l for the spin representation of B_l, 2l for
    the standard ones, 2^(l-1) for the half-spins of D_l, 27 and 56 for E."""
    if kind == "A":
        dims = {j: math.comb(l + 1, j) for j in range(1, l + 1)}
    elif kind == "B":
        dims = {l: 2 ** l}
    elif kind == "C":
        dims = {1: 2 * l}
    elif kind == "D":
        dims = {1: 2 * l, l - 1: 2 ** (l - 1), l: 2 ** (l - 1)}
    else:
        dims = {1: 27, 6: 27} if l == 6 else {7: 56}
    return tuple((j, dim, _duality(kind, l, j)) for j, dim in dims.items())


def _kept_in_twice_odd_dim(kind: str, l: int, index: int, duality: str) -> bool:
    """Whether a self-dual factor of dimension 2 mod 4 can occur: the
    standard representation of C_l (symplectic) or D_l (orthogonal) with
    l odd, or the middle exterior power of A_{2^k-1}, k >= 3 (orthogonal)."""
    if index == 1 and l % 2 == 1:
        return kind == ("C" if duality == SYMPLECTIC else "D")
    middle = kind == "A" and l >= 7 and ((l + 1) & l) == 0 and 2 * index == l + 1
    return middle and duality == ORTHOGONAL


def _rows_of_dimension(dim: int, duality: str, max_rank: int):
    """(kind, rank, index) of each classical minuscule weight of dimension
    d = dim, the given duality and rank at most max_rank, in this order:
    C_{d/2} and D_{d/2} standard, B_l spin and the D_{l+1} half-spins at
    d = 2^l, then the wedges of A_l (A_{d-1} standard and its dual first).

    A self-dual wedge is a middle one, C(2j, j) = d.  C(2j, j) < 4^j puts j
    at least at (bit length of d - 1) / 2, and each step in j multiplies
    C(2j, j) by at least 3, so a few steps decide it.  Otherwise a binary
    search finds, for each j >= 2, the l <= sqrt(2d) with C(l + 1, j) = d.
    """
    rows = []
    if dim % 2 == 0:
        rows += [("C", dim // 2, 1), ("D", dim // 2, 1)]
    if dim & (dim - 1) == 0:
        l = dim.bit_length() - 1
        rows += [("B", l, l), ("D", l + 1, l), ("D", l + 1, l + 1)]
    if duality == NON_SELF_DUAL:
        rows += [("A", dim - 1, 1), ("A", dim - 1, dim - 1)]
        top = min(max_rank, math.isqrt(2 * dim))
        for j in range(2, (top + 3) // 2):
            if math.comb(2 * j, j) > dim:
                break
            ranks = range(2 * j - 1, top + 1)
            at = bisect.bisect_left(ranks, dim, key=lambda l: math.comb(l + 1, j))
            if at < len(ranks) and math.comb(ranks[at] + 1, j) == dim:
                rows += [("A", ranks[at], j), ("A", ranks[at], ranks[at] + 1 - j)]
    else:
        j = max(1, (dim.bit_length() - 1) // 2)
        middle = _central_binomial(j)
        while middle < dim:
            middle, j = middle * (4 * j + 2) // (j + 1), j + 1
        if middle == dim:
            rows.append(("A", 2 * j - 1, j))
    for kind, l, index in rows:
        if _MIN_RANK[kind] <= l <= max_rank and _duality(kind, l, index) == duality:
            yield kind, l, index


_ODD_FLAGS = bytearray()


def _odd_flags(n: int) -> bytearray:
    """flags[i] == 1 exactly when 2i + 1 is prime (Eratosthenes over the odd
    numbers), for every odd 2i + 1 <= n at least.

    The process keeps the largest sieve built and returns it whole, so it
    may reach past n: each caller bounds its own reads.  A request past its
    end sieves again from scratch, to n.
    """
    global _ODD_FLAGS
    size = (n + 1) // 2
    if len(_ODD_FLAGS) < size:
        flags = bytearray([1]) * size
        flags[0] = 0
        for i in range(1, (math.isqrt(n) + 1) // 2):
            if flags[i]:
                p = 2 * i + 1
                start = p * p // 2
                flags[start::p] = bytes(len(range(start, size, p)))
        _ODD_FLAGS = flags
    return _ODD_FLAGS


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Primality by trial division and Miller-Rabin to the 13 bases.  A
    factor or a witness decides any n; an n that passes every base is
    prime below MR_EXACT_BOUND and refused at or above it."""
    if _require_int(n, "n") < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # no prime factor <= 41, so no factor at all
        return True
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_EXACT_BOUND:
        raise ValueError(
            f"primality is decided exactly only below {MR_EXACT_BOUND}, got {n}"
        )
    return True


def _check_verify_cap(k: int) -> None:
    if k > VERIFY_MAX_K:
        raise ValueError(
            f"k = {k} is over the cap VERIFY_MAX_K = {VERIFY_MAX_K} for the "
            "dyadic checks"
        )


def prime_count_gap(k: int) -> int:
    """pi(2^k) - pi(2^(k-1)); k is at most VERIFY_MAX_K."""
    if _require_int(k, "k") < 1:
        raise ValueError("k must be >= 1")
    _check_verify_cap(k)
    if k == 1:
        return 1  # the prime 2, the one even prime
    # the primes of (2^(k-1), 2^k] are the odd 2i + 1 with 2^(k-2) <= i < 2^(k-1)
    lo, hi = 1 << (k - 2), 1 << (k - 1)
    return _odd_flags(1 << k).count(1, lo, hi)


def prime_valuation_central_binomial(p: int, h: int) -> int:
    """v_p(C(2h, h)) by the floor-sum (Legendre) formula."""
    if _require_int(p, "p") < 2:
        raise ValueError(f"p must be a prime, got {p}")
    _require_int(h, "h")
    total = 0
    power = p
    while power <= 2 * h:
        total += 2 * h // power - 2 * (h // power)
        power *= p
    return total


def no_prime_double_is_central_binomial(
    k_max: int,
) -> tuple[bool, dict[int, list[int]]]:
    """Check that C(2^k, 2^(k-1)) / 2 is composite for 3 <= k <= k_max.

    Every prime in the dyadic interval (2^(k-1), 2^k) divides the
    central binomial exactly once and there are at least two of them,
    so the halved value has two distinct odd prime factors.  Returns
    (ok, witnesses) where witnesses[k] lists the dividing primes found.
    k_max is at most VERIFY_MAX_K.

    With lo = 2^(k-1) and hi = 2^k, the Legendre sum for v_p(C(hi, lo))
    has one term, hi // p - 2 (lo // p): a prime p > lo has
    p^2 >= (lo + 1)^2 > 2 lo = hi, so every later term is 0.  The loop
    checks that inequality once per interval and reads the term alone;
    it is 1 for each p of the interval (lo < p < hi < 2p).
    """
    if _require_int(k_max, "k_max") < 3:
        raise ValueError("k_max must be at least 3")
    _check_verify_cap(k_max)
    flags = _odd_flags(1 << k_max)
    witnesses: dict[int, list[int]] = {}
    ok = True
    for k in range(3, k_max + 1):
        # the odd p of (2^(k-1), 2^k) are the 2i + 1 with lo/2 <= i < hi/2
        lo, hi = 1 << (k - 1), 1 << k
        if (lo + 1) ** 2 <= hi:  # pragma: no cover
            raise AssertionError("the Legendre sum needs more than one term")
        dividing = [
            p
            for p in itertools.compress(range(lo + 1, hi, 2), flags[lo >> 1 : hi >> 1])
            if hi // p - 2 * (lo // p)
        ]
        witnesses[k] = dividing
        if len(dividing) < 2:
            ok = False
    return ok, witnesses
