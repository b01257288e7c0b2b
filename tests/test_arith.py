import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from gfekit.arith import (
    FactoredInteger,
    FactorizationBudgetExceeded,
    coprime_part,
    divisors,
    factor,
    integer_nth_root,
    is_perfect_power,
    is_prime,
    k_full_part,
    radical,
    small_primes,
)


def test_factor_examples():
    assert factor(1).factors == {}
    assert factor(12).factors == {2: 2, 3: 1}
    assert factor(252047376).factors == {2: 4, 3: 8, 7: 4}


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(0)


def test_factor_budget_is_loud():
    # A 110-digit semiprime cannot split within a tiny budget.
    p = 2**191 - 19
    q = 2**255 - 765
    with pytest.raises(FactorizationBudgetExceeded):
        factor(p * q, budget=2000)


def test_factor_reconstruction_exhaustive_small():
    for n in range(1, 5000):
        assert factor(n).value() == n


def _spf_table(limit: int) -> list[int]:
    # Smallest prime factor of every n <= limit: the reference factorizer.
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def _items_from_spf(n: int, spf: list[int]) -> tuple[tuple[int, int], ...]:
    out: dict[int, int] = {}
    while n > 1:
        p = spf[n]
        out[p] = out.get(p, 0) + 1
        n //= p
    return tuple(sorted(out.items()))


@pytest.mark.slow
def test_factor_reconstruction_exhaustive_to_a_million():
    limit = 10**6
    spf = _spf_table(limit)
    for n in range(1, limit + 1):
        assert factor(n).items() == _items_from_spf(n, spf), n


def test_factor_reconstruction_random():
    import sympy  # test oracle only; gfekit itself does not depend on it

    rng = random.Random(7)
    for bound, count in ((10**12, 300), (10**18, 100)):
        for _ in range(count):
            n = rng.randrange(1, bound)
            assert factor(n).factors == sympy.factorint(n), n


@pytest.mark.parametrize("factors", [
    {997: 1, 1009: 1},                    # straddles the trial bound
    {1009: 2},                            # first prime square past it
    {999983: 1, 1000003: 1},              # straddles the 10^6 sieve
    {10**12 + 39: 1},                     # prime cofactor past 10^12
    {1000003: 3},                         # perfect power of a large prime
    {3: 1, 11: 1, 17: 1, 1009: 1, 1013: 1},  # 561 * 1009 * 1013
    {2: 3, 7: 1, 1000003: 4},             # p^k * m with p past the bound
])
def test_factor_boundary_cases(factors):
    n = math.prod(p**e for p, e in factors.items())
    assert factor(n).factors == factors


def test_factor_map_does_not_depend_on_seed():
    rng = random.Random(5)
    samples = [999983 * 1000003, 1009**2 * 1013, 1000003**3 * 1009]
    samples += [rng.randrange(10**12, 10**18) for _ in range(50)]
    for n in samples:
        assert factor(n, seed=0).items() == factor(n, seed=1).items(), n


# Least strong pseudoprime to the first k prime bases, for the k of each
# Miller-Rabin tier: Jaeschke (1993) for k <= 9, Sorenson & Webster (2017)
# for k = 12 and 13.
MR_TIER_LIMITS = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)


def test_is_prime_rejects_each_tier_limit():
    import sympy  # test oracle only

    for limit in MR_TIER_LIMITS:
        assert not is_prime(limit), limit
        assert not sympy.isprime(limit), limit
    # The least strong pseudoprime to bases 2..37 needs base 41.
    assert factor(318665857834031151167461).factors == {399165290221: 1, 798330580441: 1}


def test_is_prime_near_tier_limits_matches_sympy():
    import sympy  # test oracle only

    for limit in MR_TIER_LIMITS:
        for n in range(limit - 2000, limit + 2001, 2):  # the odd n, as limit is odd
            assert is_prime(n) == sympy.isprime(n), n


def test_factor_matches_sympy_on_screen_and_power_paths():
    import sympy  # test oracle only

    rng = random.Random(28)
    samples = [1009**k for k in range(2, 13)]  # where the exponent cap is tightest
    samples += [1000003**3 * 1009, 997 * 1009, 997**2 * 1013**3]
    samples += list(range(1, 5000))
    for n in samples:
        assert factor(n).factors == sympy.factorint(n), n
    # By unique factorization, a map of sympy-proven primes whose product is n
    # is sympy.factorint(n); this costs a third of calling factorint here.
    for n in (rng.randrange(10**6, 10**18) for _ in range(500)):
        f = factor(n)
        assert f.value() == n and all(sympy.isprime(p) for p in f.primes()), n


def test_radical_examples():
    assert radical(factor(1)).factors == {}
    assert radical(FactoredInteger({2: 2, 3: 1})).factors == {2: 1, 3: 1}
    assert radical(FactoredInteger({2: 4, 3: 8, 7: 4})).factors == {2: 1, 3: 1, 7: 1}


def test_coprime_part_examples():
    assert coprime_part(FactoredInteger({2: 2, 3: 1}), 2).factors == {3: 1}
    assert coprime_part(FactoredInteger({2: 2, 3: 1}), 1).factors == {2: 2, 3: 1}
    assert coprime_part(FactoredInteger({2: 4, 3: 8, 7: 4}), 6).factors == {7: 4}


def test_k_full_part_examples():
    n = FactoredInteger({2: 4, 3: 8, 7: 4})
    assert k_full_part(n, 4).factors == {2: 4, 3: 8, 7: 4}
    assert k_full_part(n, 8).factors == {3: 8}
    assert k_full_part(n, 3).factors == {}


def test_nth_root_examples():
    assert integer_nth_root(5041, 2) == (71, True)
    assert integer_nth_root(512, 9) == (2, True)
    assert integer_nth_root(10, 3) == (2, False)


def test_nth_root_against_naive_loop():
    rng = random.Random(11)
    samples = list(range(1, 300)) + [rng.randrange(1, 10**5) for _ in range(400)]
    for n in samples:
        for t in range(2, 21):
            root, exact = integer_nth_root(n, t)
            naive = 1
            while (naive + 1) ** t <= n:
                naive += 1
            assert root == naive
            assert exact == (naive**t == n)


@given(st.integers(min_value=1, max_value=10**18), st.integers(min_value=2, max_value=40))
@settings(max_examples=300)
def test_nth_root_sandwich(n, t):
    root, exact = integer_nth_root(n, t)
    assert root**t <= n < (root + 1) ** t
    assert exact == (root**t == n)


@given(st.integers(min_value=1, max_value=10**8), st.integers(min_value=1, max_value=10**8))
@settings(max_examples=150)
def test_radical_multiplicative_on_coprime(a, b):
    if math.gcd(a, b) != 1:
        return
    ra = radical(factor(a))
    rb = radical(factor(b))
    assert radical(factor(a * b)).value() == ra.value() * rb.value()
    assert radical(radical(factor(a))).value() == ra.value()


@given(st.integers(min_value=1, max_value=10**8), st.integers(min_value=1, max_value=100))
@settings(max_examples=150)
def test_coprime_part_complement(n, k):
    f = factor(n)
    cp = coprime_part(f, k)
    assert n % cp.value() == 0
    assert math.gcd(cp.value(), k) == 1
    rest = n // cp.value()
    for p in factor(rest).primes():
        assert k % p == 0


@given(st.integers(min_value=1, max_value=10**8), st.integers(min_value=2, max_value=12))
@settings(max_examples=150)
def test_k_full_maximality(n, k):
    f = factor(n)
    kf = k_full_part(f, k)
    for p, e in kf.items():
        assert e % k == 0
    for p, e in f.items():
        if kf.valuation(p) == 0:
            assert e % k != 0


def test_perfect_power():
    assert is_perfect_power(64) == (2, 6)
    assert is_perfect_power(729) == (3, 6)
    assert is_perfect_power(17) == (17, 1)
    assert is_perfect_power(2**10 * 3**5) == (12, 5)
    assert is_perfect_power(2**10 * 3**7)[1] == 1
    assert is_perfect_power(3**1009) == (3, 1009)  # a prime exponent above 1000


@pytest.mark.parametrize("limit", [0, 1, 2, 31, 1000, 5000])
def test_small_primes_up_to_limit(limit):
    import sympy  # test oracle only

    assert small_primes(limit) == tuple(sympy.primerange(2, limit + 1))


@pytest.mark.parametrize("n", [1, 2, 12, 97, 360, 2**8 * 3**2, 12 * 113])
def test_divisors_ascending(n):
    assert divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0)


def test_factored_integer_algebra():
    a = factor(360)
    b = factor(84)
    assert (a * b).value() == 360 * 84
    assert a.gcd(b).value() == math.gcd(360, 84)
    assert (a**3).value() == 360**3
    assert a.exact_div(factor(45)).value() == 8
    with pytest.raises(ValueError):
        a.exact_div(factor(7))
    with pytest.raises(ValueError):
        FactoredInteger({4: 1})
    with pytest.raises(ValueError):
        FactoredInteger({3: 0})
