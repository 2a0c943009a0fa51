import bisect
import itertools
import re
import math
import random
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from hodgekit import numth
from hodgekit.numth import (
    _central_binomial,
    _lucas_probable_prime,
    _primes_between,
    _PSI,
    central_binomial_mod4,
    central_binomial_solve,
    factorial_two_adic,
    is_prime,
    MR_EXACT_BOUND,
    no_prime_double_is_central_binomial,
    prime_count_gap,
    prime_valuation_central_binomial,
    VERIFY_MAX_K,
)

from oracles import (
    central_binomial_mod4_direct,
    central_binomial_two_adic,
    miller_rabin_13,
    MR_BASES_13,
    primes_up_to,
    strong_probable_prime,
)


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


def test_central_binomial_matches_math_comb():
    for h in list(range(1, 400)) + [2 ** 11 - 1, 2 ** 11, 5_000]:
        assert _central_binomial(h) == math.comb(2 * h, h), h


def test_central_binomial_solve_large_kmax_is_cheap():
    # the inversion looks only near the bit length of the target, so a
    # target of about 2,460 digits is answered at once
    assert central_binomial_solve(math.comb(2 ** 13, 2 ** 12)) == 13


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
    # Miller-Rabin (k <= 18) and the oracle's sieve (k = 19, 20) are routes
    # independent of the package's sieve: a walk that skipped or overran an
    # interval edge would change some list.  The full Legendre sum checks,
    # prime by prime, the valuation the scan decides once per interval.
    ok, witnesses = no_prime_double_is_central_binomial(K_SHARED)
    assert ok
    assert sorted(witnesses) == list(range(3, K_SHARED + 1))
    for k, primes in witnesses.items():
        lo, hi = 1 << (k - 1), 1 << k
        if k <= 18:
            expected = [p for p in range(lo + 1, hi) if is_prime(p)]
        else:
            expected = oracle_interval(lo, hi)
        assert primes == expected, k
        assert all(prime_valuation_central_binomial(p, lo) == 1 for p in primes), k


def test_primes_between_on_every_small_window():
    # every window 0 <= lo, hi < 64: empty ones (lo >= hi, or no prime
    # inside), lo < 4 where 2 and 3 belong, and ends in every class mod 6
    primes = primes_up_to(64)
    for lo, hi in itertools.product(range(64), repeat=2):
        assert _primes_between(lo, hi) == [p for p in primes if lo < p < hi], (lo, hi)


@given(
    st.integers(min_value=0, max_value=1 << 16),
    st.integers(min_value=0, max_value=1 << 16),
)
@example(0, 1 << 16)
@example((1 << 16) - 16, 1 << 16)
@settings(max_examples=300, deadline=None)
def test_primes_between_matches_the_oracle(lo, hi):
    # lo >= hi is an empty window
    primes = oracle_primes(1 << 16)
    expected = primes[bisect.bisect_right(primes, lo) : bisect.bisect_left(primes, hi)]
    assert _primes_between(lo, hi) == expected


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
    # a prime above the bound passes base 2 and the Lucas test, and so is
    # refused as a probable prime
    with pytest.raises(ValueError, match=str(MR_EXACT_BOUND)):
        is_prime((1 << 89) - 1)
    with pytest.raises(ValueError, match=str(MR_EXACT_BOUND)):
        is_prime((1 << 521) - 1)
    # a factor decides at any size: only an n that passes both is refused
    assert is_prime(1 << 100) is False


def test_is_prime_decides_above_the_bound_when_a_factor_or_base_witnesses():
    assert is_prime(MR_EXACT_BOUND + 3) is False  # even
    assert is_prime(MR_EXACT_BOUND + 2) is False  # 3 divides it
    # no factor up to 41, so a Miller-Rabin base is the witness
    composite = ((1 << 61) - 1) * 1_000_000_007
    assert composite > MR_EXACT_BOUND and math.gcd(composite, math.prod(range(2, 42))) == 1
    assert is_prime(composite) is False
    # the bound is itself composite and a strong pseudoprime to 2..41, so
    # the Lucas test is its witness
    assert MR_EXACT_BOUND == 1287836182261 * 2575672364521
    assert miller_rabin_13(MR_EXACT_BOUND)
    assert is_prime(MR_EXACT_BOUND) is False


def test_psi_table_is_a014233():
    # psi_k passes the first k bases and fails the next one, unless it is
    # psi_(k+1) too; so a mistyped entry fails here, and each entry but the
    # last has a base that proves it composite
    assert list(_PSI) == sorted(_PSI) and _PSI[-1] == MR_EXACT_BOUND
    for psi in _PSI:
        passed = itertools.takewhile(lambda a: strong_probable_prime(psi, a), MR_BASES_13)
        assert len(list(passed)) == bisect.bisect_right(_PSI, psi), psi


def test_is_prime_is_false_at_every_psi_k():
    # psi_k passes the first k bases: a table read one entry off would
    # stop there and call it prime
    assert [is_prime(psi) for psi in _PSI[:12]] == [False] * 12


def test_is_prime_matches_thirteen_bases_below_the_bound():
    # psi_k +- 2 below the bound, and a seeded sample of n with no factor up
    # to 41 at every bit length from 11 to 81 (MR_EXACT_BOUND has 82 bits)
    primorial = math.prod(MR_BASES_13)
    rng = random.Random(35)
    sample = [psi + delta for psi in _PSI for delta in (-2, 2)][:-1]
    for bits in range(11, 82):
        drawn = 0
        while drawn < 60:
            n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
            if math.gcd(n, primorial) == 1:
                sample.append(n)
                drawn += 1
    assert max(sample) < MR_EXACT_BOUND
    primes = {n for n in sample if miller_rabin_13(n)}
    assert len(primes) > 300
    assert all(is_prime(n) == (n in primes) for n in sample)


# OEIS A217719, the extra strong Lucas pseudoprimes, up to 2 * 10^5
A217719 = (
    989, 3239, 5777, 10877, 27971, 29681, 30739, 31631, 39059, 72389, 73919,
    75077, 100127, 113573, 125249, 137549, 137801, 153931, 155819, 161027,
    162133, 189419,
)


def test_lucas_test_passes_every_prime_and_exactly_the_a217719_composites():
    # every odd n from 3: a square has no P and fails
    primes = set(primes_up_to(200_000)) - {2}
    passed = {n for n in range(3, 200_000, 2) if _lucas_probable_prime(n)}
    assert primes <= passed
    assert sorted(passed - primes) == list(A217719)


def test_lucas_test_rejects_base_2_strong_pseudoprimes():
    # the five least strong pseudoprimes to base 2: base 2 passes each, and
    # the Lucas test that follows it fails each
    for n in (2047, 3277, 4033, 4681, 8321):
        assert strong_probable_prime(n, 2) and not _lucas_probable_prime(n), n


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
        (central_binomial_mod4, (_Int(4),)),
        (central_binomial_mod4, (4.0,)),
        (central_binomial_mod4, (True,)),
        (prime_count_gap, (3.0,)),
        (prime_count_gap, (True,)),
        (prime_valuation_central_binomial, (5.0, 4)),
        (prime_valuation_central_binomial, (5, 4.0)),
        (no_prime_double_is_central_binomial, (4.0,)),
        (no_prime_double_is_central_binomial, (True,)),
        (central_binomial_solve, (70.0,)),
        (central_binomial_solve, (_Int(70),)),
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


def check_window(lo, hi):
    assert _primes_between(lo, hi) == oracle_interval(lo, hi - 1), (lo, hi)


def check_windows(k):
    # all of [0, 2^k), then windows below 2^k that end in each class mod 6
    top = 1 << k
    check_window(0, top)
    for r in range(6):
        check_window(max(0, top - 64 - r), top - r)


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
            check_windows(k)
        check_witnesses()
    elif order == "large_first":
        check_witnesses()
        for k in range(K_SHARED, 0, -1):
            check_gap(k)
            check_windows(k)
        check_binomials()
    else:
        for k in range(1, K_SHARED + 1):
            reset()
            check_gap(k)
            reset()
            check_windows(k)
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
    for lo, hi in ((0, 1), (0, 8), (100, 2049), (2000, 1 << top)):
        sieve.reach = 0
        check_window(lo, hi)
        assert sieve.reach <= hi >> 1, (lo, hi)
    assert numth._ODD_FLAGS is sieve  # no read rebuilt the longer sieve


@pytest.mark.parametrize(
    "call, message",
    [
        (factorial_two_adic, "n must be nonnegative"),
        (central_binomial_mod4, "z must be positive"),
        (prime_count_gap, "k must be >= 1"),
        (no_prime_double_is_central_binomial, "k_max must be at least 3"),
    ],
)
def test_a_negative_argument_is_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(-1)
