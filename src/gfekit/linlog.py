"""Certified arithmetic for quantities of the form q0 + sum(qi * log(pi)).

Everything the bound engine compares is a rational combination of logarithms
of primes. Such a combination is zero only when every coefficient is zero
(linear independence of prime logs over Q), so the sign of a nonzero
combination is always decidable: rationally when log-free, otherwise from an
exact rational enclosure at doubling precision k (128 to 1024 bits).

The enclosure is integer fixed point. `_log_fixed(p, k)` caches integers
L- <= 2^k log(p) <= L+ (at most 2 apart, from directed-rounding `mpf_log`),
and with D the common denominator of the coefficients, D * 2^k * x lies
between two integer sums of the numerators times those bounds. No interval
context is made and no logarithm is taken per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Union

from mpmath.libmp import (from_int, from_rational, mpf_exp, mpf_log, mpf_shift,
                          round_ceiling, round_floor, round_nearest, to_float, to_int)

from .errors import PrecisionExhausted

__all__ = ["LinLog", "PrecisionExhausted", "log_atom", "log_bounds", "log_of_int"]

Rat = Union[int, Fraction]

DEFAULT_PRECISION = 128
MAX_PRECISION = 1024
# floor_exp multiplies e^x out exactly only when sum(c * bit_length(p)), a
# bound on its bits, is at most this: a million-bit product takes
# milliseconds, and the enclosures decide every value below 2^MAX_PRECISION.
_EXACT_EXP_BITS = 1 << 20


def _as_fraction(x: Rat) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class LinLog:
    """const + sum of coeff * log(prime), all coefficients exact rationals."""

    const: Fraction
    logs: tuple[tuple[int, Fraction], ...]  # (prime, coefficient), sorted

    @staticmethod
    def of(x: Rat) -> "LinLog":
        return LinLog(_as_fraction(x), ())

    @staticmethod
    def build(const: Rat, logs: dict[int, Rat]) -> "LinLog":
        items = []
        for p, c in sorted(logs.items()):
            c = _as_fraction(c)
            if c:
                items.append((p, c))
        return LinLog(_as_fraction(const), tuple(items))

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "LinLog | Rat") -> "LinLog":
        other = _coerce(other)
        logs = dict(self.logs)
        for p, c in other.logs:
            logs[p] = logs.get(p, Fraction(0)) + c
        return LinLog.build(self.const + other.const, logs)

    __radd__ = __add__

    def __neg__(self) -> "LinLog":
        return LinLog(-self.const, tuple((p, -c) for p, c in self.logs))

    def __sub__(self, other: "LinLog | Rat") -> "LinLog":
        return self + (-_coerce(other))

    def __rsub__(self, other: "LinLog | Rat") -> "LinLog":
        return _coerce(other) + (-self)

    def scale(self, k: Rat) -> "LinLog":
        k = _as_fraction(k)
        if k == 0:
            return LinLog.of(0)
        return LinLog(self.const * k, tuple((p, c * k) for p, c in self.logs))

    def __mul__(self, k: Rat) -> "LinLog":
        return self.scale(k)

    __rmul__ = __mul__

    def __truediv__(self, k: Rat) -> "LinLog":
        return self.scale(Fraction(1) / _as_fraction(k))

    # -- evaluation and comparison ----------------------------------------

    def is_rational(self) -> bool:
        return not self.logs

    def rational_value(self) -> Fraction:
        if self.logs:
            raise ValueError("not a log-free quantity")
        return self.const

    def interval(self, prec: int = DEFAULT_PRECISION) -> tuple[Fraction, Fraction]:
        """Exact rationals lo <= self <= hi, each an integer over D * 2^prec.

        D is the common denominator of the constant and the coefficients;
        hi - lo is at most 2 * sum(|qi|) / 2^prec.
        """
        den = self.const.denominator
        for _, c in self.logs:
            den = math.lcm(den, c.denominator)
        lo = hi = (self.const.numerator * (den // self.const.denominator)) << prec
        for p, c in self.logs:
            a = c.numerator * (den // c.denominator)
            below, above = _log_fixed(p, prec)
            if a > 0:
                lo, hi = lo + a * below, hi + a * above
            else:
                lo, hi = lo + a * above, hi + a * below
        den <<= prec
        return Fraction(lo, den), Fraction(hi, den)

    def sign(self) -> int:
        """Certified sign (-1, 0, +1); 0 only for the exact zero combination."""
        if not self.logs:
            return (self.const > 0) - (self.const < 0)
        return self._certified_sign()[0]

    def _certified_sign(self) -> tuple[int, int]:
        """(sign, bits used) of a combination with logs."""

        def decide(prec: int) -> int | None:
            lo, hi = self.interval(prec)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            return None

        return _certify(self, decide)

    def __lt__(self, other: "LinLog | Rat") -> bool:
        return (self - _coerce(other)).sign() < 0

    def __gt__(self, other: "LinLog | Rat") -> bool:
        return (self - _coerce(other)).sign() > 0

    def __le__(self, other: "LinLog | Rat") -> bool:
        return (self - _coerce(other)).sign() <= 0

    def __ge__(self, other: "LinLog | Rat") -> bool:
        return (self - _coerce(other)).sign() >= 0

    def precision_used(self) -> int:
        """Bits needed to certify this quantity's sign (for certificates)."""
        if not self.logs:
            return 0
        return self._certified_sign()[1]

    def floor_exp(self, at_most: int | None = None) -> int:
        """floor(e^self), which is 0 when self < 0, capped at at_most.

        Exact when e^self is an integer of at most _EXACT_EXP_BITS bits (no
        constant, coefficients nonnegative integers); otherwise e^lo rounded
        down and e^hi rounded up, for the ends lo and hi of `interval`, must
        have the same floor, and hi < 0 gives 0 at once. A cap is decided
        first by one comparison, so a huge quantity under a small cap never
        climbs the precision ladder.
        """
        if at_most is not None and (at_most < 1 or log_of_int(at_most) <= self):
            return at_most
        if not self.const:
            bits = 0  # bounds the bits of e^self, an integer if the loop ends
            for p, c in self.logs:
                if c.denominator != 1 or c.numerator < 0:
                    break
                bits += c.numerator * p.bit_length()
            else:
                if bits <= _EXACT_EXP_BITS:
                    return math.prod([p**c.numerator for p, c in self.logs])

        def decide(prec: int) -> int | None:
            lo, hi = self.interval(prec)
            if hi < 0:
                return 0
            # With hi >= 0 the floors differ when e^hi / e^lo >= e, or when
            # e^hi > 2^prec puts the two rounded ends an ulp >= 1 apart.
            if hi - lo >= 1 or hi >= prec:
                return None
            floor = to_int(_exp_rounded(lo, prec, round_floor), "f")
            return floor if floor == to_int(_exp_rounded(hi, prec, round_ceiling), "f") else None

        return _certify(self, decide)[0]

    def __float__(self) -> float:
        acc = float(self.const)
        for p, c in self.logs:
            acc += float(c) * _float_log(p)
        return acc

    def __repr__(self) -> str:
        parts = [str(self.const)] if self.const or not self.logs else []
        for p, c in self.logs:
            parts.append(f"{c}*log({p})")
        return " + ".join(parts)


def _coerce(x: "LinLog | Rat") -> LinLog:
    return x if isinstance(x, LinLog) else LinLog.of(x)


def _certify(x: LinLog, decide: Callable[[int], int | None]) -> tuple[int, int]:
    """Run decide at DEFAULT_PRECISION bits, doubling until it returns a
    result.

    Returns (result, precision used); raises PrecisionExhausted when
    MAX_PRECISION is reached undecided.
    """
    prec = DEFAULT_PRECISION
    while prec <= MAX_PRECISION:
        result = decide(prec)
        if result is not None:
            return result, prec
        prec *= 2
    raise PrecisionExhausted(
        f"certified evaluation of {x} undecided at {MAX_PRECISION} bits")


@lru_cache(maxsize=None)
def _log_fixed(p: int, k: int) -> tuple[int, int]:
    """Integers lo <= 2^k log(p) <= hi with hi - lo <= 2, for p >= 2.

    log(p) is rounded down and up at k bits after the point plus 4 guard
    bits, so each end is within 1 + 2^-4 of 2^k log(p).
    """
    prec = k + p.bit_length().bit_length() + 4  # log(p) < bit_length(p)
    lo, hi = (mpf_shift(mpf_log(from_int(p), prec, rnd), k)
              for rnd in (round_floor, round_ceiling))
    return to_int(lo, "f"), to_int(hi, "c")


@lru_cache(maxsize=None)
def _float_log(p: int) -> float:
    """log(p) rounded to the nearest double."""
    return to_float(mpf_log(from_int(p), 53, round_nearest))


def _exp_rounded(q: Fraction, prec: int, rnd: str):
    """e^q at prec bits, rounded in direction rnd (floor or ceiling)."""
    return mpf_exp(from_rational(q.numerator, q.denominator, prec, rnd), prec, rnd)


def log_atom(p: int, coeff: Rat = 1) -> LinLog:
    """coeff * log(p) for a prime atom p."""
    return LinLog.build(0, {p: coeff})


def log_of_int(n: int, coeff: Rat = 1) -> LinLog:
    """coeff * log(n) for a positive integer, split over its prime factors."""
    from .arith import factor

    if n < 1:
        raise ValueError(f"log_of_int requires n >= 1, got {n}")
    if n == 1:
        return LinLog.of(0)
    coeff = _as_fraction(coeff)
    return LinLog.build(0, {p: coeff * e for p, e in factor(n).items()})


@lru_cache(maxsize=None)
def log_bounds(n: int) -> tuple[Fraction, Fraction]:
    """Certified rationals lo < log(n) < hi, each 1e-9 from a float
    estimate; (0, 0) for n = 1."""
    if n == 1:
        return Fraction(0), Fraction(0)
    mid = Fraction(math.log(n)).limit_denominator(10**12)
    lo, hi = mid - Fraction(1, 10**9), mid + Fraction(1, 10**9)
    if not LinLog.of(lo) < log_of_int(n) < LinLog.of(hi):
        raise PrecisionExhausted(f"float estimate of log({n}) misses [{lo}, {hi}]")
    return lo, hi
