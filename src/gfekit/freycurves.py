"""The four Frey-Hellegouarch curve families attached to abc-style triples.

Each family attaches an elliptic curve over Q to a coprime integer triple,
with closed-form c4, discriminant, j-invariant, and j-denominator, plus the
per-prime reduction classification the corollary-level theory guarantees.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import FactoredInteger, factor
from .errors import InvalidTriple

__all__ = [
    "FreyFamily",
    "CurveInvariants",
    "ReductionType",
    "InvalidTriple",
    "abc_permutation",
    "invariants",
    "reduction_type",
    "weierstrass_coefficients",
]


class FreyFamily(enum.Enum):
    """Curve family tags; the value names the triple constraint."""

    GENERAL_ABC = "a+b+c=0, 4|(a+1), 16|b"
    TWO_THREE = "a^2+b^3=c"
    THREE_RS = "a+b=c^3"
    TWO_RS = "a+b=c^2"


# Primes where semi-stability is not automatic for the family.
BAD_PRIMES = {
    FreyFamily.GENERAL_ABC: frozenset(),
    FreyFamily.TWO_THREE: frozenset({2, 3}),
    FreyFamily.THREE_RS: frozenset({3}),
    FreyFamily.TWO_RS: frozenset({2}),
}


class ReductionType(enum.Enum):
    GOOD = "good"
    MULTIPLICATIVE = "multiplicative"
    POTENTIALLY_BAD = "potentially-bad"


@dataclass(frozen=True)
class CurveInvariants:
    family: FreyFamily
    triple: tuple[int, int, int]
    c4: int
    delta: Fraction  # exact; carries the 2^-8 scaling for GENERAL_ABC
    j: Fraction
    denom_n: FactoredInteger
    bad_primes: frozenset[int]

    def denom_value(self) -> int:
        return self.denom_n.value()


def abc_permutation(u: int, v: int, w: int) -> tuple[int, int, int]:
    """Reorder a zero-sum coprime triple to (a, b, c) with 4|(a+1), 16|b.

    Exists whenever exactly one entry has 2-adic valuation >= 4 and the other
    two are odd; ties between the odd entries break toward the smaller |a|.
    """
    triple = (u, v, w)
    if u + v + w != 0:
        raise InvalidTriple(f"{triple} does not sum to zero")
    if 0 in triple:
        raise InvalidTriple(f"{triple} has a zero entry")
    if math.gcd(math.gcd(u, v), w) != 1:
        raise InvalidTriple(f"{triple} is not coprime")
    evens = [t for t in triple if t % 2 == 0]
    odds = [t for t in triple if t % 2 != 0]
    if len(evens) != 1 or evens[0] % 16 != 0:
        raise InvalidTriple(
            f"no admissible permutation of {triple}: need one entry with 16 | b"
        )
    b = evens[0]
    candidates = sorted((o for o in odds if (o + 1) % 4 == 0), key=abs)
    if not candidates:
        raise InvalidTriple(
            f"no admissible permutation of {triple}: no odd entry with 4 | (a+1)"
        )
    a = candidates[0]
    return a, b, -a - b


def _check_triple(family: FreyFamily, a: int, b: int, c: int) -> None:
    if 0 in (a, b, c):
        raise InvalidTriple(f"invalid triple for {family.name}: zero entry")
    if math.gcd(math.gcd(a, b), c) != 1:
        raise InvalidTriple(f"invalid triple for {family.name}: not coprime")
    if family is FreyFamily.GENERAL_ABC:
        ok = a + b + c == 0 and (a + 1) % 4 == 0 and b % 16 == 0
    elif family is FreyFamily.TWO_THREE:
        ok = a * a + b**3 == c
    elif family is FreyFamily.THREE_RS:
        ok = a + b == c**3
    else:
        ok = a + b == c * c
    if not ok:
        raise InvalidTriple(f"invalid triple for {family.name}: {(a, b, c)}")


def weierstrass_coefficients(family: FreyFamily, a: int, b: int, c: int) -> tuple:
    """Long-Weierstrass (a1, a2, a3, a4, a6) of the family's defining equation."""
    _check_triple(family, a, b, c)
    if family is FreyFamily.GENERAL_ABC:
        return (1, (b - a - 1) // 4, 0, -a * b // 16, 0)
    if family is FreyFamily.TWO_THREE:
        return (0, 0, 0, 3 * b, 2 * a)
    if family is FreyFamily.THREE_RS:
        return (3 * c, 0, a, 0, 0)
    return (0, 2 * c, 0, a, 0)


# The small powers of 2 and 3 the closed forms divide out.
_N_256 = FactoredInteger({2: 8})
_N_1728 = FactoredInteger({2: 6, 3: 3})
_N_27 = FactoredInteger({3: 3})
_N_64 = FactoredInteger({2: 6})


def _denom_factored(family: FreyFamily, a: int, b: int, c: int) -> FactoredInteger:
    # Assemble N from the factorizations of the entries it uses; the closed
    # forms are monomials in the triple divided by a small power of 2 or 3.
    if family is FreyFamily.TWO_THREE:
        fc = factor(abs(c))
        return fc.exact_div(fc.gcd(_N_1728))
    fa, fb = factor(abs(a)), factor(abs(b))
    if family is FreyFamily.GENERAL_ABC:
        return ((fa * fb * factor(abs(c))) ** 2).exact_div(_N_256)
    if family is FreyFamily.THREE_RS:
        n = fa**3 * fb
        return n.exact_div(n.gcd(_N_27))
    n = fa**2 * fb
    return n.exact_div(n.gcd(_N_64))


def invariants(family: FreyFamily, a: int, b: int, c: int) -> CurveInvariants:
    """Closed-form c4, discriminant, j and j-denominator for the triple."""
    _check_triple(family, a, b, c)
    if family is FreyFamily.GENERAL_ABC:
        c4 = a * a + a * b + b * b
        delta = Fraction(a * a * b * b * c * c, 2**8)
    elif family is FreyFamily.TWO_THREE:
        c4 = -144 * b
        delta = Fraction(-1728 * c)
    elif family is FreyFamily.THREE_RS:
        c4 = 9 * c * (a + 9 * b)
        delta = Fraction(27 * a**3 * b)
    else:
        c4 = 16 * (a + 4 * b)
        delta = Fraction(64 * a * a * b)
    j = Fraction(c4) ** 3 / delta
    denom = _denom_factored(family, a, b, c)
    # The closed form is the bookkeeping denominator used downstream. The
    # fully reduced denominator of j always divides it, and is strictly
    # smaller only in degenerate 2/3-adic corners (e.g. 9 | a here) that the
    # per-prime machinery excludes through its S1 sets.
    if denom.value() % j.denominator != 0:
        raise AssertionError(
            f"reduced denominator {j.denominator} does not divide the "
            f"closed form {denom.value()} for {family.name} {(a, b, c)}"
        )
    return CurveInvariants(
        family=family,
        triple=(a, b, c),
        c4=c4,
        delta=delta,
        j=j,
        denom_n=denom,
        bad_primes=BAD_PRIMES[family],
    )


def reduction_type(inv: CurveInvariants, p: int) -> ReductionType:
    """Corollary-level classification at p; never runs Tate's algorithm."""
    if p in inv.bad_primes:
        return ReductionType.POTENTIALLY_BAD
    if inv.denom_n.valuation(p) > 0:
        return ReductionType.MULTIPLICATIVE
    return ReductionType.GOOD
