"""Shared fixtures: synthetic bound configurations with certified admissibility."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import settings

from gfekit.arith import FactoredInteger, factor, radical, k_full_part
from gfekit.bounds import BoundConfig, make_config
from gfekit.linlog import LinLog, log_atom, log_of_int

# Property tests draw their examples from a seed derived from each test, so
# every run replays the same examples and a failure reproduces as it was seen.
settings.register_profile("replayable", derandomize=True)
settings.load_profile("replayable")


def _log_fact(n: FactoredInteger) -> LinLog:
    out = LinLog.of(0)
    for p, e in n.items():
        out = out + log_atom(p, e)
    return out


def exact_fraction(x) -> Fraction:
    """The exact rational value of a raw mpmath mpf tuple."""
    sign, man, exp, _ = x
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def log_ratio_convergents(p: int, q: int):
    """The continued-fraction convergents (a, b) of log(p)/log(q), in order.

    a log(q) - b log(p) is within about log(q)/b of zero. They come from a
    4000-bit value of the ratio, so they are exact while b < 2^1900.
    """
    with mpmath.workprec(4000):
        x = exact_fraction((mpmath.log(p) / mpmath.log(q))._mpf_)
    h0, h1, k0, k1 = 0, 1, 1, 0
    while True:
        a = x.numerator // x.denominator
        h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
        yield h1, k1
        x = 1 / (x - a)


def count_interval_calls(monkeypatch) -> list[int]:
    """A one-item list counting LinLog.interval calls from now on."""
    calls = [0]
    interval = LinLog.interval

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return interval(self, *args, **kwargs)

    monkeypatch.setattr(LinLog, "interval", counted)
    return calls


def synthetic_config(rng: random.Random) -> BoundConfig:
    """A random admissible BoundConfig with a concrete N.

    The per-prime volume constants are chosen just large enough to make the
    defining volume inequality hold for this N (certified), so every chain
    step that is a theorem holds on the instance.
    """
    s_primes = sorted(rng.sample([5, 7, 11, 13, 17, 19, 23], rng.randint(2, 4)))
    pool = [p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
            ]
    factors: dict[int, int] = {}
    for p in rng.sample(pool, rng.randint(2, 5)):
        if rng.random() < 0.45:
            l = rng.choice(s_primes)
            e = l * rng.randint(1, 2)
        else:
            e = rng.randint(1, 9)
        # keep each exponent divisible by at most one member of S
        while sum(1 for l in s_primes if e % l == 0) > 1:
            e += 1
        factors[p] = e
    n_val = FactoredInteger(factors)
    favorable = rng.random() < 0.5  # half the configs should yield live exclusions
    n0 = rng.choice([1, 2**8, 27, 1728])
    n0_f = factor(n0)
    u0 = min(e + n0_f.valuation(p) for p, e in n_val.items())
    if not favorable:
        u0 = max(1, rng.randint(1, u0))
    p_n = min(n_val.primes())
    k = 2
    s1 = frozenset(rng.sample([2, 3], rng.randint(0, 2)))
    b_set = {p for p, e in n_val.items() if any(e % l == 0 for l in s_primes)}
    rest = [n_val.valuation(p) for p in b_set - s1]
    n1_s = max(1, min(rest) if rest else rng.randint(1, 30))
    # no prime carries k distinct S-divisors, so only the elimination
    # hypothesis constrains nk(S): make the ceiling clear log(N) with slack.
    value_bits = n_val.value().bit_length()
    nk_s = math.ceil(value_bits / math.log2(p_n)) + rng.randint(1, 300)
    profiles = {}
    vols = {}
    if favorable:
        lam = Fraction(rng.randint(1, 3))
    else:
        lam = Fraction(rng.randint(2, 12), rng.randint(1, 2))
    for l in s_primes:
        if favorable:
            a4 = Fraction(1, rng.randint(6, 12))
            a1 = a4 + Fraction(1, rng.randint(4, 24))
        else:
            a4 = Fraction(rng.randint(1, 8), rng.randint(4, 12))
            a1 = a4 + Fraction(rng.randint(0, 9), rng.randint(3, 9))
        profiles[l] = (a1, a4)
        n_l = k_full_part(n_val, l)
        lhs = (_log_fact(n_val) - _log_fact(n_l)
               - log_atom(l, n_val.valuation(l))) / lam
        rhs0 = _log_fact(radical(n_val)) * a1 - _log_fact(radical(n_l)) * a4
        deficit = lhs - rhs0
        vol = Fraction(max(0.0, float(deficit)) + 0.75).limit_denominator(1024)
        assert LinLog.of(vol) + rhs0 >= lhs
        vols[l] = LinLog.of(vol)
    return make_config(
        n_value=n_val, n0=n0, u0=u0, p_n=p_n, s_primes=s_primes, k=k,
        s1=s1, n1_s=n1_s, nk_s=nk_s, lam=lam, profiles=profiles, vols=vols,
        provenance="synthetic",
    )


@pytest.fixture
def rng():
    return random.Random(20260809)
