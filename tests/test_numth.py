import bisect
import re
import math
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from hodgekit import numth
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
    prime_valuation_central_binomial,
    VERIFY_MAX_K,
)

from oracles import central_binomial_mod4_direct, primes_up_to


class _Int(int):
    """An int subclass, which the package's integer rule refuses."""


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
    # skipped or overran an interval edge would change some list; the
    # full Legendre sum checks the one-term read of each valuation
    ok, witnesses = no_prime_double_is_central_binomial(18)
    assert ok
    assert sorted(witnesses) == list(range(3, 19))
    for k, primes in witnesses.items():
        lo, hi = 1 << (k - 1), 1 << k
        assert primes == [p for p in range(lo + 1, hi) if is_prime(p)], k
        assert all(prime_valuation_central_binomial(p, lo) == 1 for p in primes), k


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
    # a factor decides at any size: only an n that passes every base is refused
    assert is_prime(1 << 100) is False


def test_is_prime_decides_above_the_bound_when_a_factor_or_base_witnesses():
    assert is_prime(MR_EXACT_BOUND + 3) is False  # even
    assert is_prime(MR_EXACT_BOUND + 2) is False  # 3 divides it
    # no factor up to 41, so a Miller-Rabin base is the witness
    composite = ((1 << 61) - 1) * 1_000_000_007
    assert composite > MR_EXACT_BOUND and math.gcd(composite, math.prod(range(2, 42))) == 1
    assert is_prime(composite) is False
    # a prime passes every base, so above the bound it is refused
    with pytest.raises(ValueError, match=str(MR_EXACT_BOUND)):
        is_prime((1 << 89) - 1)


def test_dyadic_checks_refuse_k_over_the_cap():
    # one step over: each step in k doubles the sieve's time and memory
    with pytest.raises(ValueError, match=f"VERIFY_MAX_K = {VERIFY_MAX_K}"):
        prime_count_gap(VERIFY_MAX_K + 1)
    with pytest.raises(ValueError, match=f"VERIFY_MAX_K = {VERIFY_MAX_K}"):
        no_prime_double_is_central_binomial(VERIFY_MAX_K + 1)


@pytest.mark.parametrize(
    "call, args",
    [
        (is_prime, (7.0,)),
        (is_prime, (True,)),
        (factorial_two_adic, (4.0,)),
        (factorial_two_adic, (False,)),
        (central_binomial_two_adic, (3.0,)),
        (central_binomial_mod4, (4.0,)),
        (central_binomial_mod4, (True,)),
        (prime_count_gap, (3.0,)),
        (prime_count_gap, (True,)),
        (prime_valuation_central_binomial, (5.0, 4)),
        (prime_valuation_central_binomial, (5, 4.0)),
        (no_prime_double_is_central_binomial, (4.0,)),
        (no_prime_double_is_central_binomial, (True,)),
        (central_binomial_solve, (70.0,)),
        (central_binomial_solve, (70, 5.0)),
        (central_binomial_solve, (True,)),
        (is_prime, (_Int(7),)),
        (factorial_two_adic, (_Int(4),)),
    ],
)
def test_numbers_that_are_not_int_are_refused(call, args):
    # a float or a bool used to be answered (7.0 prime, True a gap of 1)
    # or to raise TypeError; each is a ValueError that names the argument.
    # The rule is type(value) is int, so an int subclass is refused too.
    with pytest.raises(ValueError, match="must be an integer"):
        call(*args)


def test_legendre_sum_refuses_p_below_two():
    # p = 1 never grows past 2h, so the sum would loop forever
    for p in (1, 0, -3):
        with pytest.raises(ValueError, match="p must be a prime"):
            prime_valuation_central_binomial(p, 5)


# --- The shared odd-only sieve: every growth order gives the oracle's answers ---

K_SHARED = 20  # the benchmark's k_max


@lru_cache(maxsize=None)
def oracle_primes(n):
    return primes_up_to(n)


def oracle_interval(lo, hi):
    """The oracle's primes p with lo < p <= hi."""
    primes = oracle_primes(1 << K_SHARED)
    return primes[bisect.bisect_right(primes, lo) : bisect.bisect_right(primes, hi)]


@pytest.fixture
def fresh_sieve(monkeypatch):
    """An empty module sieve and an empty binomial cache, restored after."""
    monkeypatch.setattr(numth, "_ODD_FLAGS", bytearray())
    _central_binomial.cache_clear()
    yield
    _central_binomial.cache_clear()


def reset():
    numth._ODD_FLAGS = bytearray()
    _central_binomial.cache_clear()


def check_gap(k):
    assert prime_count_gap(k) == len(oracle_interval(1 << (k - 1), 1 << k)), k


def check_witnesses():
    ok, witnesses = no_prime_double_is_central_binomial(K_SHARED)
    assert ok
    assert sorted(witnesses) == list(range(3, K_SHARED + 1))
    for k, primes in witnesses.items():
        assert primes == oracle_interval(1 << (k - 1), 1 << k), k


def check_binomials():
    _central_binomial.cache_clear()
    for h in range(1, 401):
        assert _central_binomial(h) == math.comb(2 * h, h), h


@pytest.mark.parametrize("order", ["small_first", "large_first", "reset_each"])
def test_shared_sieve_answers_in_every_growth_order(order, fresh_sieve):
    if order == "small_first":
        check_binomials()
        for k in range(1, K_SHARED + 1):
            check_gap(k)
        check_witnesses()
    elif order == "large_first":
        check_witnesses()
        for k in range(K_SHARED, 0, -1):
            check_gap(k)
        check_binomials()
    else:
        for k in range(1, K_SHARED + 1):
            reset()
            check_gap(k)
        reset()
        check_witnesses()
        for h in range(1, 401):
            reset()
            assert _central_binomial(h) == math.comb(2 * h, h), h
        reset()
        check_binomials()
    if order != "reset_each":
        # the sieve of 2^20 holds one byte per odd number, and never shrinks
        assert len(numth._ODD_FLAGS) == 1 << (K_SHARED - 1)


class Watched(bytearray):
    """A sieve that records the highest index a read reaches: a slice, a
    ``count`` or an iteration over the whole.  A read it cannot see (a
    memoryview) leaves ``reach`` at 0, which the test below refuses."""

    reach = 0

    def _reach(self, stop):
        self.reach = max(self.reach, len(self) if stop is None else stop)

    def __getitem__(self, key):
        self._reach(key.stop if isinstance(key, slice) else key + 1)
        return super().__getitem__(key)

    def count(self, sub, start=0, end=None):
        self._reach(end)
        return super().count(sub, start, len(self) if end is None else end)

    def __iter__(self):
        self._reach(None)
        return super().__iter__()


def test_no_read_goes_past_the_callers_bound(fresh_sieve, monkeypatch):
    # the true flags of the odd numbers below 2^12, then every odd number
    # up to 2^13 marked prime: a gap that read past its bound would count
    # the poison, and `reach` shows any overrun the answers cannot
    top = 12
    primes = set(oracle_primes(1 << top))
    flags = bytes(2 * i + 1 in primes for i in range(1 << (top - 1)))
    sieve = Watched(flags + b"\x01" * (1 << (top - 1)))
    monkeypatch.setattr(numth, "_ODD_FLAGS", sieve)
    assert prime_count_gap(1) == 1 and sieve.reach == 0
    for k in range(2, top + 1):
        sieve.reach = 0
        check_gap(k)
        assert 0 < sieve.reach <= 1 << (k - 1), k
    sieve.reach = 0
    ok, witnesses = no_prime_double_is_central_binomial(top)
    assert ok and witnesses[top] == oracle_interval(1 << (top - 1), 1 << top)
    assert 0 < sieve.reach <= 1 << (top - 1)
    for h in (1, 2, 3, 100, 2047, 2048):
        _central_binomial.cache_clear()
        sieve.reach = 0
        assert _central_binomial(h) == math.comb(2 * h, h), h
        assert 0 < sieve.reach <= h, h
    assert numth._ODD_FLAGS is sieve  # no read rebuilt the longer sieve


@pytest.mark.parametrize(
    "call, message",
    [
        (factorial_two_adic, "n must be nonnegative"),
        (central_binomial_two_adic, "z must be nonnegative"),
        (central_binomial_mod4, "z must be positive"),
        (prime_count_gap, "k must be >= 1"),
        (no_prime_double_is_central_binomial, "k_max must be at least 3"),
    ],
)
def test_a_negative_argument_is_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(-1)
