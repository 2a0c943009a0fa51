"""Number-theoretic facts the classification arguments lean on.

Everything here is exact: 2-adic valuations by the floor-sum formula,
central binomial residues by carry counting (``int.bit_count``), prime
counts by sieve.  One odd-only byte sieve (``_odd_flags``), kept by the
module and grown on demand, serves every prime read: the prime-count
gaps count one contiguous range of its flags in C, and
``_primes_between`` lists the primes of one window in C over the 6k +- 1
wheel.  The composite check lists one dyadic interval at a time, after
one evaluation of the Legendre term that every prime of the interval
shares, so no list of all primes is built, and ``_central_binomial``
lists the primes up to 2h.
Each reader bounds its own range, since the sieve may reach past it.  It
also owns the closed-form minuscule table and its one inversion,
``_rows_of_dimension``, which ``rootsys`` reads, and the classifier
through ``central_binomial_solve`` alone, under the one cap ``_WEDGE_K_MAX``.

``is_prime`` is the one primality test of the package: trial division
by the 13 primes 2, 3, ..., 41, then Miller-Rabin to as many of them as
n needs.  ``_PSI`` holds psi_1, ..., psi_13 (OEIS A014233; Sorenson &
Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86
(2017)): no composite below psi_k is a strong pseudoprime to the first k
bases, so below psi_k those k bases decide n.
At or above psi_13 = MR_EXACT_BOUND = 3,317,044,064,679,887,385,961,981,
base 2 and then an extra strong Lucas test make the Baillie-PSW test
(Baillie & Wagstaff, Math. Comp. 35 (1980)).  A failure of either proves
n composite.  No composite is known to pass both, but none is proven
absent, so an n that passes is refused with ValueError instead of guessed
prime: a refusal means that n is a probable prime above the bound.

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
# about 0.40-0.48 s and 82 MB on a 2-vCPU Xeon VM, and k = 27 about
# 2.5-3.0 s and 505 MB.  The one sieve of 2^k_max holds 2^(k_max-1) bytes
# (64 MB at k = 27); the rest is the witness lists the answer prints (7.6
# million primes at k = 27, as Python ints) and their JSON text, so it is
# the output, not the sieve, that sets the cap.
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


def central_binomial_mod4(z: int) -> int:
    """C(2z, z) mod 4 via the carry count; the value is always 0 or 2.

    By Kummer, v_2(C(2z, z)) is the number of carries adding z + z in
    base 2, one at every set bit of z, so ``z.bit_count()``.  The residue
    is 2 exactly when that is 1, i.e. when z is a power of two; otherwise
    the valuation is at least 2.
    """
    if _require_int(z, "z") < 1:
        raise ValueError("z must be positive")
    return 2 if z.bit_count() == 1 else 0


@lru_cache(maxsize=None)
def _central_binomial(h: int) -> int:
    """C(2h, h) for h >= 1, as a balanced product tree of its prime powers.
    Python 3.11's ``math.comb(2^20, 2^19)`` divides big integers and takes
    about 12 s on a 2-vCPU Xeon VM; this takes about 0.3 s.  Cached: the
    inversion reads one value per bit length of its queries."""
    powers = [
        p ** v
        for p in _primes_between(0, 2 * h + 1)
        if (v := prime_valuation_central_binomial(p, h))
    ]
    while len(powers) > 1:
        powers = [math.prod(powers[i : i + 2]) for i in range(0, len(powers), 2)]
    return powers[0] if powers else 1


# The cap on k of the wedge alternative SU(2^k), which acts on the middle
# wedge of A_{2^k-1}.  classify reaches only k <= 13, because a JSON number
# has at most 4,300 digits (Python's default limit on reading an int) and
# C(2^14, 2^13) has about 4,930; the cap stays 20 because the classifier's
# note that drops the alternative names it.
_WEDGE_K_MAX = 20


def central_binomial_solve(target: int) -> Optional[int]:
    """The k with 3 <= k <= _WEDGE_K_MAX and C(2^k, 2^(k-1)) == target, or
    None: the orthogonal middle wedge of A_{2^k-1} that ``_rows_of_dimension``
    finds at target and ``_kept_in_twice_odd_dim`` keeps.

    At target = 0 (mod 4) this drops the orthogonal middle wedges of A_l that
    are not SU(2^k), the first being A11 on the sixth wedge at 924: whether
    they must be excluded or offered is open until the paper's text says."""
    _require_int(target, "target")
    for kind, l, index in _rows_of_dimension(target, ORTHOGONAL, target):
        if kind == "A" and _kept_in_twice_odd_dim(kind, l, index, ORTHOGONAL):
            return l.bit_length() if l.bit_length() <= _WEDGE_K_MAX else None
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
    may reach past n: each reader, ``prime_count_gap`` and
    ``_primes_between``, bounds its own reads.  A request past its end
    sieves again from scratch, to n.
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


def _primes_between(lo: int, hi: int) -> list[int]:
    """The primes p with lo < p < hi, ascending, for 0 <= lo.

    Every prime above 3 is 6j - 1 or 6j + 1, so each class is one stride-3
    slice of the odd flags, listed in C; one sort merges the two ascending
    runs.  The sieve reaches hi - 1, and no read goes past it.
    """
    flags = _odd_flags(hi - 1)
    primes = [p for p in (2, 3) if lo < p < hi]
    for residue in (1, 5):  # 6j + 1 and 6j - 1; the sieve flags 1 composite
        start = lo + 1 + (residue - lo - 1) % 6
        primes += itertools.compress(
            range(start, hi, 6), flags[start >> 1 : hi >> 1 : 3]
        )
    primes.sort()
    return primes


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k (OEIS A014233): the least odd composite that is a strong pseudoprime
# to each of the first k prime bases, so those k bases decide every n < psi_k
_PSI = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)
MR_EXACT_BOUND = _PSI[-1]


def is_prime(n: int) -> bool:
    """Primality by trial division by the 13 bases, then Miller-Rabin.
    Below MR_EXACT_BOUND only the first k bases run, for the k with
    psi_(k-1) <= n < psi_k in ``_PSI`` (OEIS A014233; Sorenson & Webster
    2017), and a pass proves n prime.  At or above it, base 2 and then
    ``_lucas_probable_prime`` make the Baillie-PSW test: a failure of either
    proves n composite, and a pass, a probable prime that nothing here
    proves, is refused with ValueError."""
    if _require_int(n, "n") < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # no prime factor <= 41, so no factor at all
        return True
    exact = n < MR_EXACT_BOUND
    bases = _MR_BASES[: bisect.bisect_right(_PSI, n) + 1] if exact else (2,)
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if exact:
        return True
    if not _lucas_probable_prime(n):
        return False
    raise ValueError(
        f"primality is decided exactly only below {MR_EXACT_BOUND}, got {n}"
    )


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a | n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _lucas_probable_prime(n: int) -> bool:
    """The extra strong Lucas test of odd n >= 3 (Grantham, Math. Comp. 70
    (2001)); its composites that pass are OEIS A217719.  Q = 1 and P is the
    least P >= 3 with ((P^2 - 4) | n) = -1.  With n + 1 = d 2^s, d odd, n
    passes when U_d = 0 and V_d = +-2, or V_(d 2^t) = 0 for some t < s - 1,
    all mod n.  The ladder carries (V_k, V_(k+1)) alone and reads U_d from
    (P^2 - 4) U_d = 2 V_(d+1) - P V_d.  False proves n composite."""
    if math.isqrt(n) ** 2 == n:
        return False  # a square has no such P
    P = 3
    while (symbol := _jacobi(P * P - 4, n)) == 1:
        P += 1
    if symbol == 0:  # P^2 - 4 shares a factor with n: prime only as n = P + 2
        return n == P + 2
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    v, w = 2, P  # V_0, V_1
    for bit in bin((n + 1) >> s)[2:]:
        if bit == "1":
            v, w = (v * w - P) % n, (w * w - 2) % n
        else:
            v, w = (v * v - 2) % n, (v * w - P) % n
    if v in (2, n - 2) and (2 * w - P * v) % n == 0:
        return True
    for _ in range(s - 1):
        if v == 0:
            return True
        v = (v * v - 2) % n
    return False


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
    p^2 >= (lo + 1)^2 > 2 lo = hi, so every later term is 0.  Neither
    hi // p nor lo // p increases with p, so their values at the ends
    p = lo + 1 and p = hi - 1 bound them for every p between: where the
    ends agree, one evaluation gives the term of every prime of the
    interval, and it is 1 (lo < p < hi < 2p).  The loop checks both facts
    once per interval and lists the interval's primes as they are.
    """
    if _require_int(k_max, "k_max") < 3:
        raise ValueError("k_max must be at least 3")
    _check_verify_cap(k_max)
    _odd_flags(1 << k_max)  # sieve once, to the largest interval
    witnesses: dict[int, list[int]] = {}
    ok = True
    for k in range(3, k_max + 1):
        lo, hi = 1 << (k - 1), 1 << k
        ends = {(hi // p, lo // p) for p in (lo + 1, hi - 1)}
        if (lo + 1) ** 2 <= hi or ends != {(1, 0)}:  # pragma: no cover
            raise AssertionError("the Legendre term is not 1 on the whole interval")
        witnesses[k] = dividing = _primes_between(lo, hi)
        if len(dividing) < 2:
            ok = False
    return ok, witnesses
