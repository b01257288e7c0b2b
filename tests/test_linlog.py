import ast
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.ctx_iv import MPIntervalContext

import gfekit
from gfekit import linlog
from gfekit.arith import small_primes
from gfekit.linlog import LinLog, PrecisionExhausted, log_atom, log_bounds, log_of_int
from tests.conftest import count_interval_calls, exact_fraction, log_ratio_convergents

LADDER = (128, 256, 512, 1024)
SRC = Path(__file__).resolve().parents[1] / "src"
PRIMES_BELOW_10K = small_primes(10**4)


def test_exact_zero_combination():
    assert (log_of_int(12) - log_atom(2, 2) - log_atom(3)).sign() == 0
    assert (log_of_int(360) - log_of_int(8) - log_of_int(45)).sign() == 0


def test_rational_fast_path():
    assert LinLog.of(Fraction(1, 3)).sign() == 1
    assert LinLog.of(0).sign() == 0
    assert (LinLog.of(2) - 5).sign() == -1


def test_certified_comparisons():
    assert log_atom(2) < log_atom(3)
    assert log_of_int(1024) > log_of_int(1000)
    assert log_of_int(2**30) < log_of_int(2**30 + 1)
    # 3^13 = 1594323 > 2^20 = 1048576: a close-ish comparison
    assert log_atom(3, 13) > log_atom(2, 20)


def test_tight_comparison_needs_precision():
    # log(2^1000001) vs log(2^1000000 * 2): equal representations cancel
    a = log_atom(2, 10**6 + 1)
    b = log_atom(2, 10**6) + log_atom(2)
    assert (a - b).sign() == 0
    # Hugely scaled but distinct combinations stay decidable.
    big = Fraction(10**30)
    assert (log_atom(2, big) - log_atom(3, big * 63092975 // 10**8)).sign() != 0


def test_algebra():
    x = log_of_int(6) * Fraction(1, 2) + 1
    y = (log_atom(2) + log_atom(3)) / 2 + 1
    assert (x - y).sign() == 0
    assert float(log_of_int(8)) == pytest.approx(2.0794415, rel=1e-6)


def test_division_and_scale():
    b2 = LinLog.of(10)
    b1 = Fraction(1, 2)
    assert (b2 / (1 - b1)).rational_value() == 20


def _small_linlog(const, coeffs):
    return LinLog.build(const, dict(zip((2, 3, 5, 7), coeffs)))


small_fracs = st.fractions(min_value=-6, max_value=6, max_denominator=6)
exponent_values = st.one_of(
    st.fractions(min_value=-5, max_value=150, max_denominator=1000).map(LinLog.of),
    st.builds(_small_linlog, small_fracs, st.lists(small_fracs, max_size=4))
    .filter(lambda x: -5 <= float(x) <= 150),
)


@settings(max_examples=80, deadline=None)
@given(exponent_values)
def test_floor_exp_brackets_the_exponential(x):
    m = x.floor_exp()
    if x < 0:
        assert m == 0
    elif m < 10**12:
        assert log_of_int(m) <= x < log_of_int(m + 1)
    else:  # too large to factor quickly: compare with a 4000-bit evaluation
        assert m == _oracle_floor_exp(x)


def test_floor_exp_of_large_exact_integers():
    # Every e^x = 2^a 3^b 5^c 7^d >= 10^12 with exponents <= 6: the ties
    # the oracle confirms by identity, and just below each of them.
    for exponents in itertools.product(range(7), repeat=4):
        x = _small_linlog(0, exponents)
        n = math.prod(p**e for p, e in zip((2, 3, 5, 7), exponents))
        if n < 10**12:
            continue
        assert x.floor_exp() == _oracle_floor_exp(x) == n, exponents
        below = x - Fraction(1, 10**30)
        assert below.floor_exp() == _oracle_floor_exp(below) == n - 1, exponents


def test_floor_exp_exact_and_capped():
    assert log_of_int(35).floor_exp() == 35
    assert (log_of_int(35) - log_of_int(4)).floor_exp() == 8
    assert LinLog.of(10**4).floor_exp(at_most=50) == 50
    with pytest.raises(PrecisionExhausted):
        LinLog.of(10**4).floor_exp()


def test_floor_exp_decides_a_huge_negative_form_from_its_enclosure():
    # sign() is -1 at 128 bits, so floor_exp must answer 0 just as fast and
    # never multiply out 2^(10^7) / 3^6309298. A child process holds the call,
    # so a hang fails the test at the time limit instead of stalling the run.
    code = ("from gfekit.linlog import log_atom\n"
            "print((log_atom(2, 10**7) - log_atom(3, 6309298)).floor_exp())")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


def test_log_bounds_bracket_prime_logs():
    assert log_bounds(1) == (0, 0)
    for p in small_primes()[:100]:
        lo, hi = log_bounds(p)
        assert LinLog.of(lo) < log_atom(p) < LinLog.of(hi)


def test_log_fixed_encloses_every_prime_log_below_10k():
    # Oracle: mpmath's interval log at k + 64 bits, scaled by 2^k.
    sample = random.Random(20261020).sample(PRIMES_BELOW_10K, 120)
    for k in LADDER:
        iv = MPIntervalContext()
        iv.prec = k + 64
        for p in PRIMES_BELOW_10K if k in (128, 1024) else sample:
            below, above = linlog._log_fixed(p, k)
            lo, hi = (exact_fraction(end) * 2**k for end in iv.log(p)._mpi_)
            assert below <= lo and hi <= above and above - below <= 2, (p, k)


def test_enclosures_do_not_depend_on_earlier_precisions():
    x = log_atom(9973, Fraction(-7, 3)) + log_atom(2, 11) + Fraction(1, 5)
    primes = (2, 3, 9973)
    for order in (LADDER, LADDER[::-1]):
        linlog._log_fixed.cache_clear()
        seen = {k: ([linlog._log_fixed(p, k) for p in primes], x.interval(k)) for k in order}
        for k in LADDER:
            linlog._log_fixed.cache_clear()
            assert seen[k] == ([linlog._log_fixed(p, k) for p in primes], x.interval(k)), k


# a log(q) - b log(p) for the convergents a/b of log(p)/log(q) up to
# b = 2^300, where the 1024-bit rung still decides the sign.
_NEAR_CANCELLING = [log_atom(q, a) - log_atom(p, b)
                    for p, q in ((3, 2), (5, 3), (7, 2), (11, 7))
                    for a, b in itertools.takewhile(lambda c: c[1] <= 2**300,
                                                    log_ratio_convergents(p, q))]
near_cancelling = st.builds(LinLog.scale, st.sampled_from(_NEAR_CANCELLING),
                            st.sampled_from((1, -1)))
generic = st.builds(
    lambda const, coeffs: LinLog.build(const, dict(zip((2, 3, 5, 7, 9973), coeffs))),
    small_fracs, st.lists(small_fracs, min_size=1, max_size=5),
)


@lru_cache(maxsize=None)
def _log4000(p: int):
    with mpmath.workprec(4000):
        return mpmath.log(p)


def _oracle(x: LinLog):
    """x at 4000 bits."""
    with mpmath.workprec(4000):
        value = mpmath.mpf(x.const.numerator) / x.const.denominator
        for p, c in x.logs:
            value += mpmath.mpf(c.numerator) / c.denominator * _log4000(p)
        return value


def _oracle_floor_exp(x: LinLog) -> int:
    """floor(e^x) from e^x at 4000 bits.

    Within 2^-3000 of an integer n the evaluation cannot tell the side (of
    the 42 integers 2^a 3^b 5^c 7^d >= 10^12 with exponents <= 6, 15 read
    one low at 2000 bits and 16 at 4000), so there e^x = n is confirmed
    instead by the integer identity n^D * prod p^(-Dc) = prod p^(Dc) over
    the negative and positive coefficients c, D their common denominator.
    """
    with mpmath.workprec(4000):
        value = mpmath.exp(_oracle(x))
        n = int(mpmath.nint(value))
        if abs(value - n) > value * mpmath.mpf(2) ** -3000:
            return int(mpmath.floor(value))
    d = math.lcm(*(c.denominator for _, c in x.logs))
    above = math.prod(p ** int(d * c) for p, c in x.logs if c > 0)
    below = math.prod(p ** int(-d * c) for p, c in x.logs if c < 0)
    assert x.const == 0 and n**d * below == above, ("undecided tie", x, n)
    return n


@settings(max_examples=120, deadline=None)
@given(st.one_of(near_cancelling, generic), st.integers(1, 30))
def test_sign_and_floor_exp_equal_a_4000_bit_oracle(x, m):
    # e^(x/2) * m sits near the integer m when x nearly cancels; the half
    # coefficients keep floor_exp off its exact path, which would expand
    # q^a / p^b with a and b up to 2^300.
    y = x / 2 + log_of_int(m)
    assert y.floor_exp() == _oracle_floor_exp(y)
    for z in (x, y):
        value = _oracle(z)
        assert z.sign() == (value > 0) - (value < 0)
        assert z.precision_used() in (LADDER if z.logs else (0,))
        width = 2 * sum(abs(c) for _, c in z.logs)
        for k in LADDER:
            lo, hi = z.interval(k)
            assert (hi - lo) * 2**k <= width
            if z.logs:  # far from lo and hi next to the oracle's 2^-4000 error
                assert lo <= exact_fraction(value._mpf_) <= hi
            else:
                assert lo == hi == z.const


def test_floor_exp_climbs_past_a_wide_enclosure():
    # At 128 bits the enclosure of y is about 2^124 wide; e^hi must not be
    # expanded to an integer on the way up the ladder.
    a, b = next(c for c in log_ratio_convergents(3, 2) if c[1] > 2**250)
    y = (log_atom(2, a) - log_atom(3, b)) / 2
    assert y < 0 and y.precision_used() == 512
    assert y.floor_exp() == 0 and (y + log_of_int(5)).floor_exp() == 4


def test_near_cancelling_draws_reach_every_rung():
    assert {x.precision_used() for x in _NEAR_CANCELLING} == set(LADDER)


def test_sign_makes_one_interval_call_per_rung(monkeypatch):
    # The benchmark's linlog.escalation_ratio counts these calls under sign.
    a, b = next(c for c in log_ratio_convergents(3, 2) if c[1] > 10**50)
    tight = log_atom(2, a) - log_atom(3, b)  # signed at 512 bits
    calls = count_interval_calls(monkeypatch)
    for x, rungs in ((log_atom(2) - 1, 1), (tight, 3)):
        before = calls[0]
        assert x.sign() != 0
        assert calls[0] - before == rungs
    assert tight.precision_used() == 512


def test_float_matches_the_53_bit_mpmath_sum():
    rng = random.Random(20261020)

    def coeff():
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))

    primes = PRIMES_BELOW_10K
    for i in range(0, len(primes), 3):
        x = LinLog.build(coeff(), {p: coeff() for p in primes[i:i + 3]})
        with mpmath.workprec(53):
            old = float(x.const)
            for p, c in x.logs:
                old += float(c) * mpmath.log(p)
        assert float(x).hex() == float(old).hex(), x


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so no proof step may use one.
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(gfekit.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
