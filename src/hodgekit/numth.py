"""Number-theoretic facts the classification arguments lean on.

Everything here is exact: 2-adic valuations by the floor-sum formula,
central binomial residues by carry counting (with the direct big-integer
product available as an independent path), prime counts by sieve.  One
byte sieve (``_sieve``) serves the prime-count gaps, which count its
flags in C without building a list, and the composite check, which
sieves once to 2^k_max and walks the odd flags of one dyadic interval at
a time, so no list of all primes is built.

``is_prime`` is the one primality test of the package: deterministic
Miller-Rabin on the 13 prime bases 2, 3, ..., 41.  No composite below
3,317,044,064,679,887,385,961,981 is a strong pseudoprime to all of them
(Sorenson & Webster, "Strong pseudoprimes to twelve prime bases",
Math. Comp. 86 (2017)), so the test is exact below that bound and raises
ValueError at or above it instead of guessing.
"""

from __future__ import annotations

import itertools
import math
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


def central_binomial_mod4_direct(z: int) -> int:
    """C(2z, z) mod 4 by full big-integer expansion (independent path)."""
    if z < 1:
        raise ValueError("z must be positive")
    return math.comb(2 * z, z) % 4


def central_binomial_solve(target: int, k_max: int = 20) -> Optional[int]:
    """Least k with 3 <= k <= k_max and C(2^k, 2^(k-1)) == target.

    Full expansion is only attempted while a cheap lower bound on the
    bit length of the central binomial does not already exceed the
    target (C(2h,h) >= 4^h / (2h+1)), so large k_max stays cheap.
    """
    if k_max < 3:
        raise ValueError("k_max must be at least 3")
    if target < 1:
        return None
    for k in range(3, k_max + 1):
        half = 1 << (k - 1)
        lower_bits = 2 * half - (2 * half + 1).bit_length()
        if lower_bits > target.bit_length():
            break
        if math.comb(2 * half, half) == target:
            return k
    return None


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


def prime_valuation_central_binomial(p: int, k: int) -> int:
    """v_p(C(2^k, 2^(k-1))) by the floor-sum (Legendre) formula."""
    n, h = 1 << k, 1 << (k - 1)
    total = 0
    power = p
    while power <= n:
        total += n // power - 2 * (h // power)
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
        gap_primes = itertools.compress(range(lo + 1, hi, 2), flags[lo + 1 : hi : 2])
        dividing = [
            p for p in gap_primes if prime_valuation_central_binomial(p, k) >= 1
        ]
        witnesses[k] = dividing
        if len(dividing) < 2:
            ok = False
    return ok, witnesses
