"""Number-theoretic facts the classification arguments lean on.

Everything here is exact: 2-adic valuations by the floor-sum formula,
central binomial residues by carry counting, prime counts by sieve.  One
byte sieve (``_sieve``) serves the prime-count gaps, which count its
flags in C without building a list, and the composite check, which
sieves once to 2^k_max and walks the odd flags of one dyadic interval at
a time, so no list of all primes is built.  It also owns the closed-form
minuscule table and its one inversion, ``_rows_of_dimension``, which
``rootsys``, ``central_binomial_solve`` and the classifier all read.

``is_prime`` is the one primality test of the package: deterministic
Miller-Rabin on the 13 prime bases 2, 3, ..., 41.  No composite below
3,317,044,064,679,887,385,961,981 is a strong pseudoprime to all of them
(Sorenson & Webster, "Strong pseudoprimes to twelve prime bases",
Math. Comp. 86 (2017)), so the test is exact below that bound and raises
ValueError at or above it instead of guessing.
"""

from __future__ import annotations

import bisect
import itertools
import math
from functools import lru_cache
from typing import Optional

# The dyadic checks sieve up to 2^k_max (the prime-count gaps once per k),
# so time and memory double per step in k: `numth verify --k-max 24` takes
# about 1.8-2.0 s and 96 MB on a 2-vCPU Xeon VM, and k = 27 about 17 s and
# 567 MB.  No list of all primes is built any more; the memory is the
# witness lists the answer prints (7.6 million primes at k = 27, as Python
# ints) and their JSON text, so it is the output that sets the cap.
VERIFY_MAX_K = 27


def factorial_two_adic(n: int) -> int:
    """v_2(n!) as the sum of floor(n / 2^i) over i >= 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = 0
    power = 2
    while power <= n:
        total += n // power
        power *= 2
    return total


def central_binomial_two_adic(z: int) -> int:
    """v_2(C(2z, z)); equals the number of ones in binary z (Kummer)."""
    if z < 0:
        raise ValueError("z must be nonnegative")
    # Carries when adding z + z in base 2 happen at every set bit.
    return bin(z).count("1")


def central_binomial_mod4(z: int) -> int:
    """C(2z, z) mod 4 via the carry count; the value is always 0 or 2.

    The residue is 2 exactly when v_2(C(2z,z)) = 1, i.e. when z is a
    power of two; otherwise the valuation is at least 2.
    """
    if z < 1:
        raise ValueError("z must be positive")
    return 2 if central_binomial_two_adic(z) == 1 else 0


@lru_cache(maxsize=None)
def _central_binomial(h: int) -> int:
    """C(2h, h) for h >= 1, as a balanced product tree of its prime powers.
    Python 3.11's ``math.comb(2^20, 2^19)`` divides big integers and takes
    about 12 s on a 2-vCPU Xeon VM; this takes about 0.3 s.  Cached: the
    inversion reads one value per bit length of its queries."""
    powers = [
        p ** v
        for p in itertools.compress(range(2 * h + 1), _sieve(2 * h))
        if (v := prime_valuation_central_binomial(p, h))
    ]
    while len(powers) > 1:
        powers = [math.prod(powers[i : i + 2]) for i in range(0, len(powers), 2)]
    return powers[0] if powers else 1


def central_binomial_solve(target: int, k_max: int = 20) -> Optional[int]:
    """Least k with 3 <= k <= k_max and C(2^k, 2^(k-1)) == target: the
    orthogonal middle wedges of A_{2^k-1} that ``_rows_of_dimension`` finds
    at target and ``_kept_in_twice_odd_dim`` keeps."""
    if k_max < 3:
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


def _sieve(n: int) -> bytearray:
    """flags[i] == 1 exactly when i <= n is prime (Eratosthenes), n >= 1."""
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return flags


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Primality by deterministic Miller-Rabin; exact for n < MR_EXACT_BOUND."""
    if n < 2:
        return False
    if n >= MR_EXACT_BOUND:
        raise ValueError(
            f"primality is decided exactly only below {MR_EXACT_BOUND}, got {n}"
        )
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
    return True


def _check_verify_cap(k: int) -> None:
    if k > VERIFY_MAX_K:
        raise ValueError(
            f"k = {k} is over the cap VERIFY_MAX_K = {VERIFY_MAX_K} for the "
            "dyadic checks"
        )


def prime_count_gap(k: int) -> int:
    """pi(2^k) - pi(2^(k-1)); k is at most VERIFY_MAX_K."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_verify_cap(k)
    # the flags past 2^(k-1) mark the primes p with 2^(k-1) < p <= 2^k
    return _sieve(1 << k).count(1, (1 << (k - 1)) + 1)


def prime_valuation_central_binomial(p: int, h: int) -> int:
    """v_p(C(2h, h)) by the floor-sum (Legendre) formula."""
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
    """
    if k_max < 3:
        raise ValueError("k_max must be at least 3")
    _check_verify_cap(k_max)
    flags = _sieve(1 << k_max)
    witnesses: dict[int, list[int]] = {}
    ok = True
    for k in range(3, k_max + 1):
        # the primes of (2^(k-1), 2^k) are odd: walk the odd flags only
        lo, hi = 1 << (k - 1), 1 << k
        odd_flags = memoryview(flags)[lo + 1 : hi : 2]
        gap_primes = itertools.compress(range(lo + 1, hi, 2), odd_flags)
        dividing = [
            p for p in gap_primes if prime_valuation_central_binomial(p, lo) >= 1
        ]
        witnesses[k] = dividing
        if len(dividing) < 2:
            ok = False
    return ok, witnesses
