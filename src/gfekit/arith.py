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


# Deterministic Miller-Rabin witness set, valid for all n < 3.317e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_LIMIT = 3317044064679887385961981
# Random Miller-Rabin witnesses tried above the limit, drawn from
# random.Random(n) so each n always gets the same answer.
_MR_ROUNDS = 64


def _miller_rabin(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality test; deterministic below 3.3e24, else _MR_ROUNDS random
    Miller-Rabin witnesses."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n < _MR_DETERMINISTIC_LIMIT:
        return all(_miller_rabin(n, a) for a in _MR_WITNESSES if a < n - 1)
    rng = random.Random(n)
    return all(_miller_rabin(n, rng.randrange(2, n - 1)) for _ in range(_MR_ROUNDS))


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
                    q = q * abs(x - y) % n
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
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _factor_into(n: int, out: dict[int, int], rng: random.Random, budget: list[int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    # Composites surviving trial division may still be proper powers.
    root, k = is_perfect_power(n)
    if k > 1:
        sub: dict[int, int] = {}
        _factor_into(root, sub, rng, budget)
        for p, e in sub.items():
            out[p] = out.get(p, 0) + e * k
        return
    d = _pollard_rho(n, rng, budget)
    _factor_into(d, out, rng, budget)
    _factor_into(n // d, out, rng, budget)


def factor(n: int, *, budget: int = 50_000_000, seed: int | None = None) -> "FactoredInteger":
    """Factor a positive integer into certified primes.

    Trial division by the primes up to 1000 (`_TRIAL_BOUND`). A cofactor
    below 1000^2 is then prime; a larger one is proven prime by `is_prime`,
    or split by the perfect-power check and Brent-Pollard rho under a work
    budget. Raises FactorizationBudgetExceeded rather than returning a
    partial map. The map is built from proven primes only, so it skips the
    public constructor's primality re-check.
    """
    if n < 1:
        raise ValueError(f"factor() requires n >= 1, got {n}")
    factors: dict[int, int] = {}
    for p in small_primes(_TRIAL_BOUND):
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n > 1:
        if n < _TRIAL_BOUND * _TRIAL_BOUND:
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


def is_perfect_power(n: int) -> tuple[int, int]:
    """Smallest base m with n = m^k, as (m, k); (n, 1) if n is not a power."""
    if n < 4:
        return n, 1
    for t in small_primes(n.bit_length()):
        r, exact = integer_nth_root(n, t)
        if exact:
            m, k = is_perfect_power(r)
            return m, k * t
    return n, 1


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    out = [1]
    for p, e in factor(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return tuple(sorted(out))
