"""Exact arithmetic on factored integers: valuations, radicals, coprime and
k-full parts, integer roots, and a certified factorizer.

Every value here is an exact Python integer or a map prime -> exponent.
Signs are carried by callers; a FactoredInteger is always >= 1.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

from .errors import FactorizationBudgetExceeded

__all__ = [
    "FactorizationBudgetExceeded",
    "set_default_seed",
    "FactoredInteger",
    "factor",
    "is_prime",
    "radical",
    "coprime_part",
    "k_full_part",
    "integer_nth_root",
    "is_perfect_power",
    "small_primes",
]

# factor() trial-divides by the primes up to this bound only. A cofactor left
# below its square has no prime factor up to the bound, so it is prime.
_TRIAL_BOUND = 1000
_TRIAL_SQUARE = _TRIAL_BOUND * _TRIAL_BOUND
_TRIAL_BITS = _TRIAL_BOUND.bit_length() - 1
_DEFAULT_SEED = [0]


def set_default_seed(seed: int) -> None:
    """Seed for the randomized splitter when factor() is not given one."""
    _DEFAULT_SEED[0] = seed


@lru_cache(maxsize=None)
def small_primes(limit: int = _TRIAL_BOUND) -> tuple[int, ...]:
    """The primes <= limit, sieved once per limit and cached."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return tuple(i for i, f in enumerate(flags) if f)


# factor() screens n >= _TRIAL_SQUARE with one gcd against this product
# instead of dividing by all 168 trial primes.
_TRIAL_PRIMORIAL = math.prod(small_primes(_TRIAL_BOUND))


# Deterministic Miller-Rabin tiers: the first k primes as bases prove every
# n below the limit, which is the least strong pseudoprime to all k of them.
# Jaeschke, "On strong pseudoprimes to several bases", Math. Comp. 61 (1993),
# for k <= 9 (the 8-base limit equals the 7-base one, and 10 or 11 bases do
# not raise the 9-base one); Sorenson & Webster, "Strong pseudoprimes to twelve
# prime bases", Math. Comp. 86 (2017), for k = 12 and 13.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_TIERS = tuple((limit, _MR_BASES[:k]) for limit, k in (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (3317044064679887385961981, 13),
))
# Random Miller-Rabin witnesses tried above the last limit, drawn from
# random.Random(n) so each n always gets the same answer.
_MR_ROUNDS = 64


def _miller_rabin(n: int, bases) -> bool:
    """True when odd n is a strong probable prime to every base in [2, n - 2]."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Primality test: trial division by the primes up to 41, then Miller-Rabin.

    Below 3,317,044,064,679,887,385,961,981 the test is deterministic and
    uses the fewest of the first 13 primes that are proven witnesses for n's
    size: one base below 2047, three below 25,326,001, nine below 3.8e18,
    twelve below 3.2e23 and all 13 (2..41) up to the limit (Jaeschke 1993;
    Sorenson & Webster 2017). Above it, _MR_ROUNDS random bases drawn from
    random.Random(n).
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    for limit, bases in _MR_TIERS:
        if n < limit:
            return _miller_rabin(n, bases)
    rng = random.Random(n)
    return _miller_rabin(n, (rng.randrange(2, n - 1) for _ in range(_MR_ROUNDS)))


def _pollard_rho(n: int, rng: random.Random, budget: list[int]) -> int:
    """Find a nontrivial factor of composite odd n (Brent's cycle variant)."""
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g, r, q = 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                budget[0] -= min(m, r - k)
                if budget[0] <= 0:
                    raise FactorizationBudgetExceeded(
                        f"factorization budget exceeded while splitting {n}"
                    )
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _factor_into(n: int, out: dict[int, int], rng: random.Random, budget: list[int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    # Composites surviving trial division may still be proper powers m^k. Every
    # prime factor of n exceeds _TRIAL_BOUND >= 2^_TRIAL_BITS, so
    # n > 2^(_TRIAL_BITS * k) caps the exponent.
    root, k = _perfect_power(n, (n.bit_length() - 1) // _TRIAL_BITS)
    if k > 1:
        sub: dict[int, int] = {}
        _factor_into(root, sub, rng, budget)
        for p, e in sub.items():
            out[p] = out.get(p, 0) + e * k
        return
    d = _pollard_rho(n, rng, budget)
    _factor_into(d, out, rng, budget)
    _factor_into(n // d, out, rng, budget)


def _divide_out(n: int, p: int, factors: dict[int, int]) -> int:
    """Record the power of prime p dividing n in factors; return the rest."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    factors[p] = e
    return n


def factor(n: int, *, budget: int = 50_000_000, seed: int | None = None) -> "FactoredInteger":
    """Factor a positive integer into certified primes.

    Trial division by the primes up to 1000 (`_TRIAL_BOUND`): below 1000^2
    the loop stops at sqrt(n); from 1000^2 on, one gcd with the product of
    the 168 trial primes picks out the ones dividing n, and only those are
    divided out. A cofactor below 1000^2 is then prime; a larger one is
    proven prime by `is_prime` (Miller-Rabin with the witness tier for its
    size), or split by a perfect-power check and Brent-Pollard rho under a
    work budget. The cofactor's prime factors all exceed 1000 > 2^9, so the
    power check tries only prime exponents k <= (bit_length - 1) // 9.
    Raises FactorizationBudgetExceeded rather than returning a partial map.
    The map is built from proven primes only, so it skips the public
    constructor's primality re-check.
    """
    if n < 1:
        raise ValueError(f"factor() requires n >= 1, got {n}")
    factors: dict[int, int] = {}
    if n < _TRIAL_SQUARE:
        for p in small_primes(_TRIAL_BOUND):
            if p * p > n:
                break
            while n % p == 0:
                factors[p] = factors.get(p, 0) + 1
                n //= p
    else:
        # m holds each trial prime dividing n once; its last cofactor is prime.
        m = math.gcd(n, _TRIAL_PRIMORIAL)
        for p in small_primes(_TRIAL_BOUND):
            if p * p > m:
                break
            if m % p == 0:
                m //= p
                n = _divide_out(n, p, factors)
        if m > 1:
            n = _divide_out(n, m, factors)
    if n > 1:
        if n < _TRIAL_SQUARE:
            factors[n] = factors.get(n, 0) + 1
        else:
            if seed is None:
                seed = _DEFAULT_SEED[0]
            _factor_into(n, factors, random.Random(seed), [budget])
    return FactoredInteger._raw(tuple(sorted(factors.items())))


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer as an immutable prime -> exponent map.

    The empty map is 1. Zero is unrepresentable; callers keep signs separately.
    """

    _factors: tuple[tuple[int, int], ...]

    def __init__(self, factors: dict[int, int] | tuple[tuple[int, int], ...] = ()):
        items = sorted(dict(factors).items())
        for p, e in items:
            if e < 1:
                raise ValueError(f"exponent of {p} must be >= 1, got {e}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "_factors", tuple(items))

    @classmethod
    def one(cls) -> "FactoredInteger":
        return cls(())

    @classmethod
    def _raw(cls, items: tuple[tuple[int, int], ...]) -> "FactoredInteger":
        # Internal: trusted already-sorted prime/exponent pairs.
        obj = object.__new__(cls)
        object.__setattr__(obj, "_factors", items)
        return obj

    @property
    def factors(self) -> dict[int, int]:
        return dict(self._factors)

    def items(self) -> tuple[tuple[int, int], ...]:
        return self._factors

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self._factors)

    def value(self) -> int:
        n = 1
        for p, e in self._factors:
            n *= p**e
        return n

    def valuation(self, p: int) -> int:
        for q, e in self._factors:
            if q == p:
                return e
        return 0

    def __mul__(self, other: "FactoredInteger") -> "FactoredInteger":
        out = dict(self._factors)
        for p, e in other._factors:
            out[p] = out.get(p, 0) + e
        return FactoredInteger._raw(tuple(sorted(out.items())))

    def __pow__(self, k: int) -> "FactoredInteger":
        if k < 0:
            raise ValueError("negative power of a FactoredInteger")
        if k == 0:
            return FactoredInteger.one()
        return FactoredInteger._raw(tuple((p, e * k) for p, e in self._factors))

    def exact_div(self, other: "FactoredInteger") -> "FactoredInteger":
        out = dict(self._factors)
        for p, e in other._factors:
            have = out.get(p, 0)
            if have < e:
                raise ValueError(f"{other.value()} does not divide {self.value()}")
            if have == e:
                del out[p]
            else:
                out[p] = have - e
        return FactoredInteger._raw(tuple(sorted(out.items())))

    def gcd(self, other: "FactoredInteger") -> "FactoredInteger":
        out = {}
        for p, e in self._factors:
            f = other.valuation(p)
            if f:
                out[p] = min(e, f)
        return FactoredInteger._raw(tuple(sorted(out.items())))

    def __repr__(self) -> str:
        if not self._factors:
            return "FactoredInteger(1)"
        body = " * ".join(f"{p}^{e}" if e > 1 else f"{p}" for p, e in self._factors)
        return f"FactoredInteger({body})"


def radical(n: FactoredInteger) -> FactoredInteger:
    """rad(N): the product of the distinct primes dividing N."""
    return FactoredInteger._raw(tuple((p, 1) for p, _ in n.items()))


def coprime_part(n: FactoredInteger, k: int) -> FactoredInteger:
    """N_(k): the largest divisor of N coprime to k."""
    if k < 1:
        raise ValueError(f"coprime_part requires k >= 1, got {k}")
    return FactoredInteger._raw(tuple((p, e) for p, e in n.items() if k % p != 0))


def k_full_part(n: FactoredInteger, k: int) -> FactoredInteger:
    """N^<k>: the product of p^v_p(N) over primes with k | v_p(N)."""
    if k < 2:
        raise ValueError(f"k_full_part requires k >= 2, got {k}")
    return FactoredInteger._raw(tuple((p, e) for p, e in n.items() if e % k == 0))


def integer_nth_root(n: int, t: int) -> tuple[int, bool]:
    """Largest r with r^t <= n, plus exactness. Requires n >= 1, t >= 2."""
    if n < 1:
        raise ValueError(f"integer_nth_root requires n >= 1, got {n}")
    if t < 2:
        raise ValueError(f"integer_nth_root requires t >= 2, got {t}")
    if t == 2:
        r = math.isqrt(n)
        return r, r * r == n
    if n == 1:
        return 1, True
    if t >= n.bit_length():
        return 1, n == 1
    # Newton iteration seeded from the bit length; exact integer arithmetic.
    r = 1 << -(-n.bit_length() // t)
    while True:
        nxt = ((t - 1) * r + n // r ** (t - 1)) // t
        if nxt >= r:
            break
        r = nxt
    while r**t > n:
        r -= 1
    while (r + 1) ** t <= n:
        r += 1
    return r, r**t == n


# Residue filters: a perfect square must be a square modulo each modulus.
_SQ_MOD = {
    m: frozenset((i * i) % m for i in range(m)) for m in (256, 255, 7 * 11 * 13, 325)
}


def is_perfect_square(n: int) -> tuple[int, bool]:
    """(isqrt(n), exact) with cheap residue rejection before the isqrt."""
    if n < 0:
        return 0, False
    for m, residues in _SQ_MOD.items():
        if n % m not in residues:
            return 0, False
    r = math.isqrt(n)
    return r, r * r == n


def _perfect_power(n: int, max_exp: int) -> tuple[int, int]:
    """Smallest base m with n = m^k, as (m, k), trying prime exponents up to
    max_exp only; (n, 1) if none gives an exact root."""
    for t in small_primes(max_exp):
        r, exact = integer_nth_root(n, t)
        if exact:
            m, k = _perfect_power(r, max_exp // t)
            return m, k * t
    return n, 1


def is_perfect_power(n: int) -> tuple[int, int]:
    """Smallest base m with n = m^k, as (m, k); (n, 1) if n is not a power."""
    if n < 4:
        return n, 1
    return _perfect_power(n, n.bit_length() - 1)


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    out = [1]
    for p, e in factor(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return tuple(sorted(out))
