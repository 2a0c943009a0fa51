import math

import pytest
from hypothesis import given, settings, strategies as st

from hodgekit.numth import (
    _central_binomial,
    central_binomial_mod4,
    central_binomial_solve,
    central_binomial_two_adic,
    factorial_two_adic,
    is_prime,
    MR_EXACT_BOUND,
    no_prime_double_is_central_binomial,
    prime_count_gap,
    VERIFY_MAX_K,
)

from oracles import central_binomial_mod4_direct, primes_up_to


def test_factorial_two_adic_examples():
    assert factorial_two_adic(4) == 3
    assert factorial_two_adic(0) == 0
    assert factorial_two_adic(10) == 8


def test_factorial_two_adic_matches_popcount_identity():
    # Legendre: v2(n!) = n - s2(n)
    for n in range(0, 3000):
        assert factorial_two_adic(n) == n - bin(n).count("1")


def test_power_of_two_factorials():
    for k in range(3, 12):
        assert factorial_two_adic(1 << (k - 1)) == (1 << (k - 1)) - 1


def test_central_binomial_mod4_examples():
    assert central_binomial_mod4(4) == 2
    assert central_binomial_mod4(3) == 0
    assert central_binomial_mod4(1) == 2


def test_mod4_paths_agree():
    for z in range(1, 1025):
        assert central_binomial_mod4(z) == central_binomial_mod4_direct(z)


@given(st.integers(min_value=1, max_value=10000))
@settings(max_examples=200, deadline=None)
def test_kummer_valuation_identity(z):
    assert central_binomial_two_adic(z) == factorial_two_adic(2 * z) - 2 * factorial_two_adic(z)


def test_central_binomial_solve():
    assert central_binomial_solve(70) == 3
    assert central_binomial_solve(6) is None
    assert central_binomial_solve(12870) == 4
    assert central_binomial_solve(math.comb(32, 16)) == 5
    assert central_binomial_solve(math.comb(32, 16) + 2) is None
    with pytest.raises(ValueError):
        central_binomial_solve(70, k_max=2)


def test_central_binomial_matches_math_comb():
    for h in list(range(1, 400)) + [2 ** 11 - 1, 2 ** 11, 5_000]:
        assert _central_binomial(h) == math.comb(2 * h, h), h


def test_central_binomial_solve_large_kmax_is_cheap():
    # the inversion looks only near the bit length of the target
    assert central_binomial_solve(70, k_max=200) == 3


def test_primes_and_pi():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert len(primes_up_to(1)) == 0
    assert len(primes_up_to(2)) == 1
    assert len(primes_up_to(100)) == 25


def test_primes_up_to_matches_is_prime_for_every_n():
    # the sieve's edges: n = 0, 1 and 2, and every bound up to 3,000
    expected = []
    for n in range(3001):
        if is_prime(n):
            expected.append(n)
        assert primes_up_to(n) == expected, n


def test_prime_count_gap_matches_an_is_prime_count():
    for k in range(1, 15):
        lo, hi = 1 << (k - 1), 1 << k
        assert prime_count_gap(k) == sum(map(is_prime, range(lo + 1, hi + 1))), k


def test_prime_count_gap_examples():
    assert prime_count_gap(1) == 1
    assert prime_count_gap(3) == 2  # 5, 7
    assert prime_count_gap(4) == 2  # 11, 13
    for k in range(3, 16):
        assert prime_count_gap(k) >= 2


def test_prime_count_gap_telescopes():
    total = sum(prime_count_gap(k) for k in range(1, 13))
    assert total == len(primes_up_to(1 << 12))


def test_no_prime_double_small_cases():
    ok, witnesses = no_prime_double_is_central_binomial(4)
    assert ok
    assert witnesses[3] == [5, 7]
    assert witnesses[4] == [11, 13]
    # direct check: the witnesses really divide the binomials
    assert math.comb(8, 4) % 5 == 0 and math.comb(8, 4) % 7 == 0
    assert 6435 == math.comb(16, 8) // 2
    assert 6435 == 3 * 3 * 5 * 11 * 13


def test_no_prime_double_scan():
    ok, witnesses = no_prime_double_is_central_binomial(10)
    assert ok
    for k, primes in witnesses.items():
        assert len(primes) >= 2
        value = math.comb(1 << k, 1 << (k - 1))
        for p in primes:
            assert value % p == 0


def test_witnesses_are_every_prime_of_each_dyadic_interval():
    # Miller-Rabin is a route independent of the sieve: a walk that
    # skipped or overran an interval edge would change some list
    ok, witnesses = no_prime_double_is_central_binomial(16)
    assert ok
    assert sorted(witnesses) == list(range(3, 17))
    for k, primes in witnesses.items():
        lo, hi = 1 << (k - 1), 1 << k
        assert primes == [p for p in range(lo + 1, hi) if is_prime(p)], k


def test_is_prime_matches_the_sieve():
    primes = set(primes_up_to(200_000))
    assert all(is_prime(n) == (n in primes) for n in range(-2, 200_001))


def test_is_prime_on_pseudoprimes_and_mersenne_primes():
    # a Carmichael number, then strong pseudoprimes to the bases 2..7,
    # 2..31 and 2..37 (the last one caught only by the base 41)
    for n in (
        561,
        3_215_031_751,
        3_825_123_056_546_413_051,
        318_665_857_834_031_151_167_461,
    ):
        assert not is_prime(n), n
    assert is_prime((1 << 31) - 1)
    assert is_prime((1 << 61) - 1)


def test_is_prime_refuses_at_the_exact_bound():
    # the bound is itself composite and a strong pseudoprime to 2..41
    assert MR_EXACT_BOUND == 1287836182261 * 2575672364521
    with pytest.raises(ValueError, match=str(MR_EXACT_BOUND)):
        is_prime(MR_EXACT_BOUND)
    with pytest.raises(ValueError, match=str(MR_EXACT_BOUND)):
        is_prime(1 << 100)


def test_dyadic_checks_refuse_k_over_the_cap():
    # one step over: each step in k doubles the sieve's time and memory
    with pytest.raises(ValueError, match=f"VERIFY_MAX_K = {VERIFY_MAX_K}"):
        prime_count_gap(VERIFY_MAX_K + 1)
    with pytest.raises(ValueError, match=f"VERIFY_MAX_K = {VERIFY_MAX_K}"):
        no_prime_double_is_central_binomial(VERIFY_MAX_K + 1)
