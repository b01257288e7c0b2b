"""Frey-curve invariants against the standard Weierstrass recurrences.

The oracle below computes (c4, delta, j) from the defining long-Weierstrass
equation through the b2/b4/b6/b8 recurrences in exact rational arithmetic,
independently of the closed forms under test.
"""

import math
import random
import zlib
from fractions import Fraction

import pytest

from gfekit.freycurves import (
    BAD_PRIMES,
    FreyFamily,
    InvalidTriple,
    ReductionType,
    abc_permutation,
    invariants,
    reduction_type,
    weierstrass_coefficients,
)


def weierstrass_oracle(a1, a2, a3, a4, a6):
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
    delta = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    assert 1728 * delta == c4**3 - c6 * c6
    return c4, Fraction(delta), Fraction(c4) ** 3 / delta


def random_triple(family: FreyFamily, rng: random.Random, bound: int = 10**6):
    while True:
        if family is FreyFamily.GENERAL_ABC:
            a = 4 * rng.randrange(-bound // 4, bound // 4) - 1
            b = 16 * rng.randrange(-bound // 16, bound // 16 + 1)
            c = -a - b
            if 0 in (a, b, c) or math.gcd(math.gcd(a, b), c) != 1:
                continue
            return a, b, c
        if family is FreyFamily.TWO_THREE:
            a = rng.randrange(-bound, bound)
            b = rng.randrange(-bound, bound)
            if 0 in (a, b) or math.gcd(a, b) != 1:
                continue
            c = a * a + b**3
            if c == 0:
                continue
            return a, b, c
        if family is FreyFamily.THREE_RS:
            a = rng.randrange(-bound, bound)
            c = rng.randrange(-bound, bound)
            if 0 in (a, c) or math.gcd(a, c) != 1:
                continue
            b = c**3 - a
            if b == 0:
                continue
            return a, b, c
        a = rng.randrange(-bound, bound)
        c = rng.randrange(-bound, bound)
        if 0 in (a, c) or math.gcd(a, c) != 1:
            continue
        b = c * c - a
        if b == 0:
            continue
        return a, b, c


@pytest.mark.parametrize("family", list(FreyFamily))
def test_invariants_match_weierstrass_oracle(family):
    rng = random.Random(zlib.crc32(family.name.encode()) & 0xFFFF)
    for _ in range(1000):
        a, b, c = random_triple(family, rng)
        inv = invariants(family, a, b, c)
        coeffs = weierstrass_coefficients(family, a, b, c)
        c4o, deltao, jo = weierstrass_oracle(*coeffs)
        assert inv.c4 == c4o
        assert inv.delta == deltao
        assert inv.j == jo
        assert inv.j * inv.delta == Fraction(inv.c4) ** 3
        # the closed-form denominator is a multiple of the reduced one,
        # with equality away from deep 2/3-adic corners
        assert inv.denom_value() % inv.j.denominator == 0


def test_invariants_spec_values():
    inv = invariants(FreyFamily.GENERAL_ABC, -1, 16, -15)
    assert inv.j == Fraction(241**3, 225)
    assert inv.denom_n.factors == {3: 2, 5: 2}
    inv = invariants(FreyFamily.TWO_THREE, 3, -2, 1)
    assert inv.j == -13824
    assert inv.denom_n.factors == {}
    inv = invariants(FreyFamily.THREE_RS, 1, 7, 2)
    assert inv.j == Fraction(56623104, 7)
    assert inv.denom_n.factors == {7: 1}
    inv = invariants(FreyFamily.TWO_RS, 1, 3, 2)
    assert inv.j == Fraction(140608, 3)
    assert inv.denom_n.factors == {3: 1}


def test_general_abc_gcd_coprimality():
    rng = random.Random(99)
    for _ in range(300):
        a, b, c = random_triple(FreyFamily.GENERAL_ABC, rng, bound=10**5)
        inv = invariants(FreyFamily.GENERAL_ABC, a, b, c)
        assert math.gcd(inv.c4, (a * b * c) ** 2) == 1


def test_abc_permutation_examples():
    assert abc_permutation(32, 49, -81) == (-81, 32, 49)
    assert abc_permutation(-1, 16, -15) == (-1, 16, -15)
    assert abc_permutation(49, 32, -81) == (-81, 32, 49)


def test_abc_permutation_properties():
    rng = random.Random(5)
    for _ in range(400):
        a = 4 * rng.randrange(-10**5, 10**5) - 1
        b = 16 * rng.randrange(-10**4, 10**4 + 1)
        c = -a - b
        if 0 in (a, b, c) or math.gcd(math.gcd(a, b), c) != 1:
            continue
        perm = abc_permutation(*rng.sample([a, b, c], 3))
        assert sorted(perm) == sorted([a, b, c])
        assert (perm[0] + 1) % 4 == 0
        assert perm[1] % 16 == 0
        assert sum(perm) == 0


def test_abc_permutation_rejects():
    with pytest.raises(InvalidTriple):
        abc_permutation(1, 2, -3)  # no entry with 2-adic valuation >= 4
    with pytest.raises(InvalidTriple):
        abc_permutation(1, 1, -2)
    with pytest.raises(InvalidTriple):
        abc_permutation(2, 32, -34)  # two even entries


def test_reduction_type_examples():
    inv = invariants(FreyFamily.GENERAL_ABC, -1, 16, -15)
    assert reduction_type(inv, 7) is ReductionType.GOOD
    assert reduction_type(inv, 5) is ReductionType.MULTIPLICATIVE
    inv3 = invariants(FreyFamily.THREE_RS, 1, 7, 2)
    assert reduction_type(inv3, 3) is ReductionType.POTENTIALLY_BAD
    assert reduction_type(inv3, 7) is ReductionType.MULTIPLICATIVE
    assert BAD_PRIMES[FreyFamily.TWO_THREE] == {2, 3}


def test_invalid_triples_rejected():
    with pytest.raises(InvalidTriple):
        invariants(FreyFamily.GENERAL_ABC, 1, 16, -17)  # 4 does not divide a+1
    with pytest.raises(InvalidTriple):
        invariants(FreyFamily.TWO_THREE, 2, 2, 12)  # not coprime
    with pytest.raises(InvalidTriple):
        invariants(FreyFamily.THREE_RS, 1, 1, 2)  # a+b != c^3
